/**
 * @file
 * Word-parallel (64-wide) stuck-at fault simulation.
 *
 * Serial fault grading re-runs the full match protocol once per
 * fault. This module instead runs 64 faulty chips at once on the
 * 64-lane plane engine (gate/planesim.hh): one lane per fault, every
 * lane fed the same stimulus -- the classic parallel-pattern trick
 * turned sideways into parallel-fault form.
 *
 * The stimulus is not re-derived but *replayed* from an InputTrace
 * captured off a real fault-free protocol run via gate::NetTap.
 * Stuck-at faults become per-lane force masks, which is precisely
 * Netlist::forceStuckAt's ignore-all-writes contract. The fault
 * grader cross-checks lane verdicts against serial single-fault runs
 * and requires 100% agreement.
 */

#ifndef SPM_FAULT_WORDSIM_HH
#define SPM_FAULT_WORDSIM_HH

#include <cstdint>
#include <vector>

#include "fault/collapse.hh"
#include "gate/netlist.hh"
#include "gate/planesim.hh"

namespace spm::fault
{

/** One replayable stimulus event. */
struct TraceOp
{
    enum class Kind : std::uint8_t
    {
        SetInput, ///< external Netlist::setInput(node, v)
        Settle,   ///< a Netlist::settle() boundary
        Observe,  ///< protocol read of the result node (text position)
    };

    Kind kind = Kind::Settle;
    gate::NodeId node = gate::invalidNode; ///< SetInput only
    gate::LogicValue v = gate::LogicValue::X; ///< SetInput only
    std::uint32_t index = 0; ///< Observe only: text position
};

/**
 * An exact record of one protocol run against one chip: the settled
 * node values at capture start (right after construction, before any
 * fault is lowered) plus every stimulus event in order. Because the
 * feed schedule is data-independent, the fault-free trace is also
 * the stimulus every faulty twin of the chip receives.
 */
struct InputTrace
{
    std::vector<gate::LogicValue> initial; ///< per-node snapshot
    std::vector<TraceOp> ops;
    gate::NodeId resultNode = gate::invalidNode;
    bool resultInverted = false;
    std::size_t patternLen = 0; ///< for the i >= len-1 result masking
    std::size_t observations = 0;
    bool sawDecay = false; ///< retention failure during capture
};

/**
 * The gate::NetTap that fills an InputTrace. Install with
 * Netlist::setTap() right after snapshotting via begin(); Observe
 * events come from the protocol (GateLevelMatcher::setResultObserver)
 * through observe(), not through the netlist.
 */
class TraceRecorder : public gate::NetTap
{
  public:
    explicit TraceRecorder(InputTrace &trace) : tr(trace) {}

    /** Snapshot @p net's settled state and the observation contract. */
    void begin(const gate::Netlist &net, gate::NodeId result_node,
               bool result_inverted, std::size_t pattern_len);

    /** Record a protocol observation of the result node. */
    void observe(std::size_t index);

    void onSetInput(gate::NodeId node, gate::LogicValue v) override;
    void onSettle() override;
    void onDecay(gate::NodeId node) override;

  private:
    InputTrace &tr;
};

/**
 * The 64-wide fault simulator for one netlist structure. Construction
 * compiles the plane engine (once per structure); run() replays a
 * trace with up to 64 faults forced, one per lane.
 */
class WordFaultSim
{
  public:
    explicit WordFaultSim(const gate::Netlist &net) : sim(net) {}

    struct BatchResult
    {
        /** Lane mask: lane k set when fault k was detected. */
        std::uint64_t detected = 0;
        /** Per lane, the first diverging observation index, or -1. */
        std::vector<std::int32_t> firstDiff;
    };

    /**
     * Replay @p trace with @p faults forced (lane k gets faults[k];
     * at most 64). @p golden_masked holds the fault-free masked
     * result bit per Observe op, in op order -- exactly the values
     * the protocol's match() returned. A lane is detected when any
     * of its masked observations differs from golden. An empty fault
     * list is the replay-fidelity probe: all 64 lanes run fault-free
     * and any detection is a simulator defect.
     */
    BatchResult run(const InputTrace &trace,
                    const std::vector<FaultSite> &faults,
                    const std::vector<std::uint8_t> &golden_masked);

    /** Word-wide device evaluations performed so far (effort). */
    std::uint64_t wordEvals() const { return sim.wordEvals(); }

  private:
    gate::PlaneSim sim;
    std::vector<gate::PlaneForce> forces; ///< per-run scratch
};

} // namespace spm::fault

#endif // SPM_FAULT_WORDSIM_HH
