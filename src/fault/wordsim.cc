#include "fault/wordsim.hh"

#include "util/logging.hh"

namespace spm::fault
{

using gate::Device;
using gate::DeviceKind;
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

namespace
{

/** Broadcast a scalar logic value to the two planes of one lane set. */
void
broadcast(LogicValue v, std::uint64_t &one, std::uint64_t &zero)
{
    one = v == LogicValue::H ? ~0ULL : 0ULL;
    zero = v == LogicValue::L ? ~0ULL : 0ULL;
}

/**
 * Word-wide static gate evaluation on the two-plane encoding. Each
 * formula is the plane transcription of gate/logic.hh's three-valued
 * operator: a lane with neither plane bit set is X and stays X
 * exactly when the scalar algebra says so.
 */
void
evalStaticWord(DeviceKind kind, std::uint64_t a1, std::uint64_t a0,
               std::uint64_t b1, std::uint64_t b0, std::uint64_t &o1,
               std::uint64_t &o0)
{
    switch (kind) {
    case DeviceKind::Inverter:
        o1 = a0;
        o0 = a1;
        break;
    case DeviceKind::And2:
        o1 = a1 & b1;
        o0 = a0 | b0;
        break;
    case DeviceKind::Nand2:
        o1 = a0 | b0;
        o0 = a1 & b1;
        break;
    case DeviceKind::Or2:
        o1 = a1 | b1;
        o0 = a0 & b0;
        break;
    case DeviceKind::Nor2:
        o1 = a0 & b0;
        o0 = a1 | b1;
        break;
    case DeviceKind::Xor2:
        o1 = (a1 & b0) | (a0 & b1);
        o0 = (a1 & b1) | (a0 & b0);
        break;
    case DeviceKind::Xnor2:
        o1 = (a1 & b1) | (a0 & b0);
        o0 = (a1 & b0) | (a0 & b1);
        break;
    case DeviceKind::PassGate:
        spm_panic("evalStaticWord called on a pass transistor");
    }
}

} // namespace

WordFaultSim::WordFaultSim(const gate::Netlist &netlist)
    : net(netlist), nodeCount(netlist.nodeCount()),
      lev(gate::levelize(netlist))
{
    one.assign(nodeCount, 0);
    zero.assign(nodeCount, 0);
    force1.assign(nodeCount, 0);
    force0.assign(nodeCount, 0);
    forceAny.assign(nodeCount, 0);
    dirty.assign(nodeCount, 0);
}

bool
WordFaultSim::writeNode(NodeId node, std::uint64_t n1, std::uint64_t n0)
{
    // The force masks pin stuck lanes against every write -- the
    // word-parallel form of NodeState::stuck.
    const std::uint64_t any = forceAny[node];
    n1 = (n1 & ~any) | force1[node];
    n0 = (n0 & ~any) | force0[node];
    if (n1 == one[node] && n0 == zero[node])
        return false;
    one[node] = n1;
    zero[node] = n0;
    if (!dirty[node]) {
        dirty[node] = 1;
        touched.push_back(node);
    }
    for (std::uint32_t consumer : lev.fallbackFanout[node])
        worklist.push_back(consumer);
    return true;
}

bool
WordFaultSim::evalOrdered(std::uint32_t dev_idx)
{
    ++evals;
    const Device &d = net.deviceList()[dev_idx];
    const NodeId nb = d.inB == gate::invalidNode ? d.inA : d.inB;
    std::uint64_t o1 = 0;
    std::uint64_t o0 = 0;
    // A one-input gate's unused plane pair mirrors the scalar path's
    // b = X (all-zero planes are harmless: the inverter ignores b).
    evalStaticWord(d.kind, one[d.inA], zero[d.inA],
                   d.inB == gate::invalidNode ? 0 : one[nb],
                   d.inB == gate::invalidNode ? 0 : zero[nb], o1, o0);
    return writeNode(d.out, o1, o0);
}

bool
WordFaultSim::evalFallback(std::uint32_t dev_idx)
{
    const Device &d = net.deviceList()[dev_idx];
    if (d.kind != DeviceKind::PassGate)
        return evalOrdered(dev_idx);
    ++evals;
    // Per lane: ctl high copies the source (refresh), ctl low holds
    // the stored planes, ctl X makes the stored value unknown --
    // bitwise-exactly Netlist::evaluateDevice's three arms.
    const std::uint64_t c1 = one[d.ctl];
    const std::uint64_t c0 = zero[d.ctl];
    const std::uint64_t o1 = (c1 & one[d.inA]) | (c0 & one[d.out]);
    const std::uint64_t o0 = (c1 & zero[d.inA]) | (c0 & zero[d.out]);
    return writeNode(d.out, o1, o0);
}

void
WordFaultSim::settleWord()
{
    const std::vector<Device> &devs = net.deviceList();
    const std::uint64_t round_limit = 64 + 4 * devs.size();
    const std::uint64_t eval_limit =
        64 + 16ULL * devs.size() * (devs.size() + 1);
    std::uint64_t rounds = 0;
    std::uint64_t fallback_steps = 0;
    for (;;) {
        bool changed = false;
        // Flat dirty-gated pass in producer-before-consumer order;
        // in-pass propagation reaches every ordered reader because
        // gate::levelize placed writers first.
        for (std::uint32_t d : lev.topo) {
            const Device &dev = devs[d];
            if (!dirty[dev.inA] &&
                (dev.inB == gate::invalidNode || !dirty[dev.inB]))
                continue;
            changed |= evalOrdered(d);
        }
        for (NodeId node : touched)
            dirty[node] = 0;
        touched.clear();

        // Event-driven relaxation of pass transistors and cyclic
        // statics, same LIFO discipline as the scalar fallback.
        while (!worklist.empty()) {
            const std::uint32_t dev = worklist.back();
            worklist.pop_back();
            changed |= evalFallback(dev);
            spm_assert(++fallback_steps <= eval_limit,
                       "word netlist failed to settle (oscillating "
                       "feedback?)");
        }

        if (!changed)
            break;
        spm_assert(++rounds <= round_limit,
                   "word netlist failed to settle after ", rounds,
                   " rounds");
    }
    for (NodeId node : touched)
        dirty[node] = 0;
    touched.clear();
}

WordFaultSim::BatchResult
WordFaultSim::run(const InputTrace &trace,
                  const std::vector<FaultSite> &faults,
                  const std::vector<std::uint8_t> &golden_masked)
{
    spm_assert(faults.size() <= 64, "a batch holds at most 64 faults");
    spm_assert(trace.initial.size() == nodeCount,
               "trace captured from a different netlist structure");
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

    // Fresh per-run state: planes from the capture snapshot, no dirt.
    for (NodeId node = 0; node < nodeCount; ++node)
        broadcast(trace.initial[node], one[node], zero[node]);
    for (NodeId node : forcedNodes) {
        force1[node] = 0;
        force0[node] = 0;
        forceAny[node] = 0;
    }
    forcedNodes.clear();
    worklist.clear();
    for (NodeId node : touched)
        dirty[node] = 0;
    touched.clear();

    for (std::size_t lane = 0; lane < faults.size(); ++lane) {
        const FaultSite &f = faults[lane];
        spm_assert(f.node < nodeCount, "fault site out of range");
        const std::uint64_t bit = 1ULL << lane;
        if (forceAny[f.node] == 0)
            forcedNodes.push_back(f.node);
        (f.stuckAt1 ? force1 : force0)[f.node] |= bit;
        forceAny[f.node] |= bit;
    }
    // Lower the faults exactly as forceStuckAt does: pin the value
    // now, schedule the fanout, and let the protocol's next settle
    // propagate it (settling early here could sample a pass gate the
    // stimulus is about to close).
    for (NodeId node : forcedNodes)
        writeNode(node, one[node], zero[node]);

    BatchResult res;
    res.firstDiff.assign(faults.empty() ? 64 : faults.size(), -1);
    std::size_t obs = 0;
    for (const TraceOp &op : trace.ops) {
        switch (op.kind) {
        case TraceOp::Kind::SetInput: {
            std::uint64_t n1 = 0;
            std::uint64_t n0 = 0;
            broadcast(op.v, n1, n0);
            writeNode(op.node, n1, n0);
            break;
        }
        case TraceOp::Kind::Settle:
            settleWord();
            break;
        case TraceOp::Kind::Observe: {
            const NodeId rn = trace.resultNode;
            // Positive-logic result bit per lane: known && value,
            // which on planes is simply the plane matching the
            // polarity (a set plane bit implies known).
            const std::uint64_t val =
                trace.resultInverted ? zero[rn] : one[rn];
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
