#include "fault/wordsim.hh"

#include "util/logging.hh"

namespace spm::fault
{

using gate::LogicValue;
using gate::NodeId;

void
TraceRecorder::begin(const gate::Netlist &net, NodeId result_node,
                     bool result_inverted, std::size_t pattern_len)
{
    tr.initial.clear();
    tr.initial.reserve(net.nodeCount());
    for (NodeId id = 0; id < net.nodeCount(); ++id)
        tr.initial.push_back(net.value(id));
    tr.ops.clear();
    tr.resultNode = result_node;
    tr.resultInverted = result_inverted;
    tr.patternLen = pattern_len;
    tr.observations = 0;
    tr.sawDecay = false;
}

void
TraceRecorder::observe(std::size_t index)
{
    TraceOp op;
    op.kind = TraceOp::Kind::Observe;
    op.index = static_cast<std::uint32_t>(index);
    tr.ops.push_back(op);
    ++tr.observations;
}

void
TraceRecorder::onSetInput(NodeId node, LogicValue v)
{
    TraceOp op;
    op.kind = TraceOp::Kind::SetInput;
    op.node = node;
    op.v = v;
    tr.ops.push_back(op);
}

void
TraceRecorder::onSettle()
{
    TraceOp op;
    op.kind = TraceOp::Kind::Settle;
    tr.ops.push_back(op);
}

void
TraceRecorder::onDecay(NodeId)
{
    // The match protocol never stalls the clock, so decay cannot fire
    // during capture; a trace that saw one is not replayable (the
    // word simulator has no decay model) and is refused by run().
    tr.sawDecay = true;
}

WordFaultSim::BatchResult
WordFaultSim::run(const InputTrace &trace,
                  const std::vector<FaultSite> &faults,
                  const std::vector<std::uint8_t> &golden_masked)
{
    spm_assert(faults.size() <= 64, "a batch holds at most 64 faults");
    spm_assert(!trace.sawDecay,
               "trace saw charge decay; not replayable word-parallel");
    spm_assert(golden_masked.size() == trace.observations,
               "golden verdicts must match the trace's observations");

    // With no faults every lane is the fault-free chip, and checking
    // all 64 against golden turns the run into a pure replay-fidelity
    // probe: any detection is a simulator bug, not a fault.
    const std::uint64_t lanes = faults.empty() || faults.size() == 64
        ? ~0ULL
        : (1ULL << faults.size()) - 1;

    // Fresh run from the capture snapshot, one fault per lane.
    forces.clear();
    for (std::size_t lane = 0; lane < faults.size(); ++lane)
        forces.push_back(
            {faults[lane].node, 1ULL << lane, faults[lane].level()});
    sim.load(trace.initial, forces);

    BatchResult res;
    res.firstDiff.assign(faults.empty() ? 64 : faults.size(), -1);
    std::size_t obs = 0;
    for (const TraceOp &op : trace.ops) {
        switch (op.kind) {
        case TraceOp::Kind::SetInput:
            sim.setInput(op.node, op.v == LogicValue::H ? ~0ULL : 0ULL,
                         op.v == LogicValue::L ? ~0ULL : 0ULL);
            break;
        case TraceOp::Kind::Settle:
            sim.settle();
            break;
        case TraceOp::Kind::Observe: {
            const NodeId rn = trace.resultNode;
            // Positive-logic result bit per lane: known && value,
            // which on planes is simply the plane matching the
            // polarity (a set plane bit implies known).
            const std::uint64_t val =
                trace.resultInverted ? sim.zeros(rn) : sim.ones(rn);
            const std::uint64_t masked =
                op.index + 1 >= trace.patternLen ? val : 0;
            const std::uint64_t gold =
                golden_masked[obs] ? ~0ULL : 0ULL;
            const std::uint64_t diff = (masked ^ gold) & lanes;
            if (diff) {
                std::uint64_t fresh = diff & ~res.detected;
                while (fresh) {
                    const int lane = __builtin_ctzll(fresh);
                    res.firstDiff[static_cast<std::size_t>(lane)] =
                        static_cast<std::int32_t>(op.index);
                    fresh &= fresh - 1;
                }
                res.detected |= diff;
            }
            ++obs;
            break;
        }
        }
    }
    spm_assert(obs == trace.observations, "trace replay desynchronized");
    return res;
}

} // namespace spm::fault
