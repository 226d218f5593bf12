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
 * three-valued algebra as gate/logic.hh, and settle() reaches the node
 * values Netlist::settle reaches. A forced lane ignores every write,
 * which is precisely Netlist::forceStuckAt's ignore-all-writes
 * contract. There is no charge-decay model: a protocol that stalls the
 * clock cannot run here.
 *
 * The schedule is compiled from the two-phase clock. Every pass
 * transistor's gate is a primary input (the constructor checks it), so
 * it is final before a settle starts, and per lane the transistor is a
 * buffer (gate H), a hold (gate L) or an unknown (gate X). A gate node
 * is *live* when it is not L in every lane; the live gates make the
 * *live set*. For each live set the engine compiles, on the first
 * settle that meets it, one order (gate::levelize) over the static
 * gates plus the live pass transistors; a held transistor is a
 * boundary, like a primary input. On the 8 x 2 chip there are three
 * live sets (clocks low, phi1 high, phi2 high), all three acyclic.
 *
 * On an acyclic live set a settle replays a *tape*. setInput records
 * the nodes it changed; settle() drops those no ordered device reads
 * (a source behind a held transistor, a falling clock), and the rest
 * key the tape the live set caches for them. A miss compiles it from
 * their *cones* (every ordered device downstream of them, each once),
 * sorted by (level, kind) and cut into runs of one kind, each one loop
 * with its formula fixed at compile time. A step's *level* is one more
 * than the highest among the earlier cone steps writing its inputs or
 * its output (a pass transistor reads its output), so grouping one
 * level's steps by kind changes no lane. The force masks cost only
 * after a load() with forces. Each load() with new forces writes a new
 * set of nodes, so a compile at tapeBound tapes first drops them all.
 *
 * A live set with a cycle arises when a lane lets both phases conduct
 * (a clock stuck H or X in some lanes) or when static gates form a
 * feedback loop. It settles by event-driven relaxation, seeded from
 * the recorded writes: the static gates off every cycle run in their
 * static-only order, visiting only the gates with a changed input, and
 * pass transistors and cyclic statics run from a worklist. There a
 * write schedules a pass transistor only when, in some lane the write
 * changed, evaluating it could change its output: a change of its
 * source matters only where its gate is not L; a change of its gate
 * matters only where the gate turned X (the charge becomes unknown) or
 * rose to H over an output that differs from the source. A gate that
 * only falls schedules nothing. Every skipped evaluation would have
 * written back the planes it found, so every lane's result is the
 * same.
 *
 * wordEvals() counts word-wide device evaluations: on an acyclic live
 * set every step of the tapes replayed, whether or not its output
 * changes; on a cyclic one every device the relaxation evaluates.
 */

#ifndef SPM_GATE_PLANESIM_HH
#define SPM_GATE_PLANESIM_HH

#include <cstdint>
#include <vector>

#include "gate/netlist.hh"

namespace spm::gate
{

/**
 * The evaluation order compiled for one netlist and one live set: the
 * ordered devices, and the devices left out of the order.
 */
struct Levelization
{
    /**
     * Ordered device indices, producers first: every static gate and
     * every live pass transistor that sits on no feedback cycle.
     */
    std::vector<std::uint32_t> topo;
    /**
     * Per device: 1 when left out of topo -- a held pass transistor,
     * or a device on a feedback cycle.
     */
    std::vector<std::uint8_t> isFallback;
    /** Whether some static gate or live pass transistor is on a cycle. */
    bool cyclic = false;
};

/**
 * Compile @p net's current device list for a live set: Kahn's
 * algorithm over the dependency edges of the static gates and of the
 * pass transistors whose gate node @p live marks (one flag per node;
 * empty marks none), read off the netlist's own reader lists. A node
 * driven by a held pass transistor or by nothing (a primary input) is
 * a boundary of the order and contributes no edge.
 */
Levelization levelize(const Netlist &net,
                      const std::vector<std::uint8_t> &live);

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
 * The 64-lane simulator for one netlist structure. load() starts a run
 * from a settled snapshot, after which setInput/settle drive it exactly
 * as Netlist::setInput/settle drive one scalar copy. Construction
 * compiles the static-only order the relaxation needs; the per-live-set
 * orders compile on the first settle that meets them.
 */
class PlaneSim
{
  public:
    /** @p net's pass transistors must all be gated by primary inputs. */
    explicit PlaneSim(const Netlist &net);

    /**
     * Start a run: every lane of every node takes @p values (one
     * scalar value per node, e.g. a settled chip's snapshot), nothing
     * is pending, and @p forces replace any earlier ones. The forced
     * values are written now and recorded, exactly as forceStuckAt
     * does; the next settle() propagates them (settling early could
     * sample a pass gate the stimulus is about to close).
     */
    void load(const std::vector<LogicValue> &values,
              const std::vector<PlaneForce> &forces = {});

    /**
     * Drive external input @p node: lane k becomes H when bit k of
     * @p one is set, L when bit k of @p zero is, X otherwise. Forced
     * lanes keep their level. Nothing is evaluated until settle().
     */
    void setInput(NodeId node, std::uint64_t one, std::uint64_t zero)
    {
        record(node, store(node, one, zero));
    }

    /** Propagate the recorded changes until every lane settles. */
    void settle();

    /** Lanes where @p node is H. */
    std::uint64_t ones(NodeId node) const { return one[node]; }

    /** Lanes where @p node is L. */
    std::uint64_t zeros(NodeId node) const { return zero[node]; }

    /** Word-wide device evaluations performed so far (effort). */
    std::uint64_t wordEvals() const { return evals; }

    /** The most tapes kept at once, over every live set. */
    static constexpr std::size_t tapeBound = 64;

    /** Tapes cached now. */
    std::size_t tapeCount() const { return tapes; }

  private:
    /**
     * One device as the engine evaluates it: @p a and @p b are its
     * inputs -- for a pass transistor its source and its gate -- and
     * a missing second input reads the spare X slot at nodeCount.
     */
    struct Step
    {
        DeviceKind kind;
        NodeId a, b, out;
    };

    /**
     * One acyclic settle, cached for the set of nodes it was keyed by:
     * run r is steps [runEnds[r - 1], runEnds[r]), all of one kind.
     */
    struct Tape
    {
        std::vector<NodeId> key; ///< written nodes with a cone, as written
        std::vector<Step> steps;
        std::vector<std::uint32_t> runEnds;
    };

    /** The order and tapes compiled for one live set. */
    struct PhaseOrder
    {
        /** Bit c set when gate node controls[c] is live. */
        std::vector<std::uint64_t> live;
        /** Settled by relaxation; no order or tapes are kept. */
        bool cyclic = false;
        std::vector<Step> steps; ///< producers first
        /** Per node (and the spare X slot): 1 when some step reads it. */
        std::vector<std::uint8_t> read;
        std::vector<Tape> tapes;
    };

    /** A node setInput (or a force) changed since the last settle. */
    struct Write
    {
        NodeId node;
        std::uint64_t lanes; ///< the lanes it changed
    };

    /** Write @p node's planes, forced lanes kept; the changed lanes. */
    std::uint64_t store(NodeId node, std::uint64_t n1, std::uint64_t n0)
    {
        // The force masks pin stuck lanes against every write -- the
        // word-parallel form of NodeState::stuck.
        const std::uint64_t any = forceAny[node];
        n1 = (n1 & ~any) | force1[node];
        n0 = (n0 & ~any) | force0[node];
        const std::uint64_t changed = (n1 ^ one[node]) | (n0 ^ zero[node]);
        one[node] = n1;
        zero[node] = n0;
        return changed;
    }

    void record(NodeId node, std::uint64_t changed);
    template <DeviceKind K>
    void eval(const Step &s, std::uint64_t &o1, std::uint64_t &o0) const;
    template <DeviceKind K, bool Forced>
    void run(const Step *s, const Step *end);
    std::size_t orderForLiveSet();
    PhaseOrder compile(const std::vector<std::uint64_t> &live) const;
    void replay(PhaseOrder &order);
    const Tape &compileTape(PhaseOrder &order);
    void relax();
    void schedule(NodeId node, std::uint64_t changed);
    bool relaxDevice(std::uint32_t dev_idx);

    const Netlist &net;
    std::size_t nodeCount;

    /** Value planes, plus the spare X slot at index nodeCount. */
    std::vector<std::uint64_t> one, zero;
    std::vector<std::uint64_t> force1, force0;  ///< stuck lane masks
    std::vector<std::uint64_t> forceAny;        ///< force1 | force0 | X
    std::vector<NodeId> forcedNodes;

    /** Every device as a Step, by device index. */
    std::vector<Step> devSteps;
    /**
     * The distinct pass-transistor gate nodes, and per node its index
     * in controls, or -1.
     */
    std::vector<NodeId> controls;
    std::vector<std::int32_t> controlIndex;

    /** The live sets met so far, and the one the planes are in. */
    std::vector<PhaseOrder> orders;
    std::size_t current = 0;
    /** A gate node changed: current must be looked up again. */
    bool liveStale = true;
    std::vector<std::uint64_t> liveScratch; ///< orderForLiveSet's key
    std::vector<Write> written;
    std::vector<NodeId> tapeKey; ///< replay()'s key (scratch)
    std::size_t tapes = 0;       ///< cached, over every order

    // Relaxation, for cyclic live sets.
    /** The static-only order: every pass transistor left out. */
    const Levelization lev;
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
     * whose "gate" is the spare X slot -- never L, so the scheduling
     * rule always schedules them.
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
