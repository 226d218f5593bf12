/**
 * @file
 * The 64-lane three-valued plane engine.
 *
 * Every netlist node carries two 64-bit planes: bit k of `one` is set
 * when lane k's node is H, bit k of `zero` when it is L, neither when
 * it is X. One pass of bitwise gate evaluations therefore advances 64
 * copies of the circuit together -- the classic parallel-pattern
 * trick. The lanes may differ in their stimulus (setInput takes a
 * plane pair, one bit per lane) and in their stuck-at faults (force
 * masks), which is what lets the same engine run 64 faulty twins of a
 * chip on one stimulus (fault/wordsim.hh) or 64 text windows on one
 * fault-free chip (core::GateLevelMatcher::matchLanes).
 *
 * Exactness is the whole point: the planes implement the same
 * three-valued algebra as gate/logic.hh, and settle() runs the order
 * gate::levelize compiles for gate/levelized.cc -- a topological pass
 * that evaluates exactly the ordered gates with a changed input, plus
 * event-driven relaxation of pass transistors and cyclic statics. A
 * forced lane ignores every write, which is precisely
 * Netlist::forceStuckAt's ignore-all-writes contract. There is no
 * charge-decay model: a protocol that stalls the clock cannot run
 * here.
 */

#ifndef SPM_GATE_PLANESIM_HH
#define SPM_GATE_PLANESIM_HH

#include <cstdint>
#include <vector>

#include "gate/levelized.hh"
#include "gate/netlist.hh"

namespace spm::gate
{

/** Lanes of one node pinned to a level (a stuck-at fault). */
struct PlaneForce
{
    NodeId node = invalidNode;
    /** Lane mask the force applies to. */
    std::uint64_t lanes = 0;
    /** The stuck level; X pins the lanes unknown. */
    LogicValue level = LogicValue::X;
};

/**
 * The 64-lane simulator for one netlist structure. Construction
 * compiles the evaluation order once; load() starts a run from a
 * settled snapshot, after which setInput/settle drive it exactly as
 * Netlist::setInput/settle drive one scalar copy.
 */
class PlaneSim
{
  public:
    explicit PlaneSim(const Netlist &net);

    /**
     * Start a run: every lane of every node takes @p values (one
     * scalar value per node, e.g. a settled chip's snapshot), nothing
     * is pending, and @p forces replace any earlier ones. The forced
     * values are written now and their fanout scheduled, exactly as
     * forceStuckAt does; the next settle() propagates them (settling
     * early could sample a pass gate the stimulus is about to close).
     */
    void load(const std::vector<LogicValue> &values,
              const std::vector<PlaneForce> &forces = {});

    /**
     * Drive external input @p node: lane k becomes H when bit k of
     * @p one is set, L when bit k of @p zero is, X otherwise. Forced
     * lanes keep their level.
     */
    void setInput(NodeId node, std::uint64_t one, std::uint64_t zero)
    {
        writeNode(node, one, zero);
    }

    /** Propagate pending changes until every lane settles. */
    void settle();

    /** Lanes where @p node is H. */
    std::uint64_t ones(NodeId node) const { return one[node]; }

    /** Lanes where @p node is L. */
    std::uint64_t zeros(NodeId node) const { return zero[node]; }

    /** Word-wide device evaluations performed so far (effort). */
    std::uint64_t wordEvals() const { return evals; }

  private:
    bool writeNode(NodeId node, std::uint64_t n1, std::uint64_t n0);
    bool evalOrdered(std::uint32_t dev_idx);
    bool evalFallback(std::uint32_t dev_idx);

    const Netlist &net;
    std::size_t nodeCount;

    /** Compiled order, shared with gate::LevelizedNetlist. */
    const Levelization lev;

    std::vector<std::uint64_t> one, zero;       ///< value planes
    std::vector<std::uint64_t> force1, force0;  ///< stuck lane masks
    std::vector<std::uint64_t> forceAny;        ///< force1 | force0 | X
    std::vector<NodeId> forcedNodes;
    /**
     * Per node, the topological positions of the ordered gates reading
     * it (CSR: readers of node n are readerPos[readerStart[n] ..
     * readerStart[n + 1])).
     */
    std::vector<std::uint32_t> readerStart, readerPos;
    /** Levelization::fallbackFanout in the same CSR form. */
    std::vector<std::uint32_t> fallStart, fallDev;
    /**
     * Bit p set when ordered gate lev.topo[p] has an input that changed
     * since its last evaluation; the topological pass visits set bits
     * only, in position order.
     */
    std::vector<std::uint64_t> pending;
    std::vector<std::uint32_t> worklist; ///< fallback devices

    std::uint64_t evals = 0;
};

} // namespace spm::gate

#endif // SPM_GATE_PLANESIM_HH
