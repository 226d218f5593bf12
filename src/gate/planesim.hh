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
 * gate::levelize compiles -- a topological pass that evaluates exactly
 * the ordered gates with a changed input, plus event-driven relaxation
 * of pass transistors and cyclic statics. A
 * forced lane ignores every write, which is precisely
 * Netlist::forceStuckAt's ignore-all-writes contract. There is no
 * charge-decay model: a protocol that stalls the clock cannot run
 * here.
 *
 * One scheduling rule is the engine's own: a write schedules a pass
 * transistor only when, in some lane the write changed, evaluating it
 * could change its output. Per lane, a transistor whose gate is L
 * holds its charge, so
 *  - a change of its source matters only in lanes where its gate is
 *    not L;
 *  - a change of its gate matters only in lanes where the gate turned
 *    X (the charge becomes unknown) or rose to H while the output does
 *    not carry the source yet -- the engine keeps, per transistor, the
 *    lanes where it last conducted, has held since, and has seen no
 *    source change since (nothing else drives its output, so there the
 *    output equals the source). A gate that only falls schedules
 *    nothing.
 * In two-phase logic half the pass transistors hold on every beat and
 * most of the other half re-sample an unchanged source, so the rule
 * drops most fallback evaluations, while the node writes, and so every
 * lane's result, stay exactly the same: every skipped evaluation would
 * have written back the planes it found. The rule reads the live
 * planes, so X and forced lanes count like any other; a loaded
 * snapshot starts with no lane known to carry its source.
 */

#ifndef SPM_GATE_PLANESIM_HH
#define SPM_GATE_PLANESIM_HH

#include <cstdint>
#include <vector>

#include "gate/netlist.hh"

namespace spm::gate
{

/**
 * The evaluation order PlaneSim compiles for one finished netlist:
 * the static gates in topological order, and the devices left to
 * event-driven relaxation.
 */
struct Levelization
{
    /** Ordered static-gate device indices, producers first. */
    std::vector<std::uint32_t> topo;
    /**
     * Per device: 1 when left to event-driven relaxation -- every pass
     * transistor and every static gate inside a feedback cycle.
     */
    std::vector<std::uint8_t> isFallback;
};

/**
 * Compile @p net's current device list: Kahn's algorithm over the
 * static-gate dependency edges, read off the netlist's own reader
 * lists. A node driven by a pass transistor or by nothing (a primary
 * input) is a boundary of the ordered region and contributes no edge.
 */
Levelization levelize(const Netlist &net);

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

    /** Compiled evaluation order. */
    const Levelization lev;

    /** Value planes, plus the never-L slot at index nodeCount. */
    std::vector<std::uint64_t> one, zero;
    std::vector<std::uint64_t> force1, force0;  ///< stuck lane masks
    std::vector<std::uint64_t> forceAny;        ///< force1 | force0 | X
    std::vector<NodeId> forcedNodes;
    /**
     * Per node, the ordered gates reading it as marks into `pending`
     * (CSR: node n's marks are readerMarks[readerStart[n] ..
     * readerStart[n + 1]), one per pending word that holds a reader).
     */
    struct PendingMark
    {
        std::uint32_t word;
        std::uint64_t bits;
    };
    std::vector<std::uint32_t> readerStart;
    std::vector<PendingMark> readerMarks;
    /**
     * The fallback devices reading each node, in the same CSR form,
     * split by how they read it. gatedDevs: the pass transistors the
     * node gates. dataReaders: the pass transistors it is the source
     * of, with their gate node, and the cyclic statics reading it,
     * whose "gate" is the spare plane slot at index nodeCount -- never
     * L, so the scheduling rule always schedules them.
     */
    struct DataReader
    {
        std::uint32_t dev;
        NodeId gate;
    };
    std::vector<std::uint32_t> gatedStart, gatedDevs;
    std::vector<std::uint32_t> dataStart;
    std::vector<DataReader> dataReaders;
    /**
     * Per device, the lanes where a pass transistor's output carries
     * its source: it last conducted there, has held since, and its
     * source has not changed there since.
     */
    std::vector<std::uint64_t> copied;
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
