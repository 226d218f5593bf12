/**
 * @file
 * The levelized compiled fast path for the gate-level simulator.
 *
 * Between clock edges the pattern matcher's netlist is almost
 * entirely feed-forward static logic, and the checkerboard discipline
 * means half of it sees no input change on any given beat. The
 * event-driven worklist of Netlist::settle pays queue churn and
 * duplicate evaluations for generality it rarely needs; this module
 * compiles the settled netlist once -- after construction, per phase
 * configuration -- into a topologically ordered flat array of static
 * gates and then settles by linear passes with activity gating (a
 * gate whose inputs did not change is skipped without evaluation).
 *
 * What cannot be levelized falls back to the event-driven discipline
 * inside the same fixpoint loop: pass transistors (dynamic nodes with
 * charge and clock semantics) and any static gate caught in a
 * feedback cycle (the static shift register's regeneration loop).
 * Values, stuck-at faults, charge refresh times and X propagation are
 * shared with the wrapped Netlist, so the fast path is observably
 * bit-identical node for node -- which the property tests verify
 * against Netlist::settle on every standard cell and the full chip.
 */

#ifndef SPM_GATE_LEVELIZED_HH
#define SPM_GATE_LEVELIZED_HH

#include <cstdint>
#include <vector>

#include "gate/netlist.hh"

namespace spm::gate
{

/**
 * The levelization decision for one finished netlist, shared by every
 * compiled settle loop: LevelizedNetlist here and the 64-lane plane
 * engine (gate/planesim.hh). The loops stay separate -- one writes
 * scalar node values, the other value planes under force masks -- but
 * both run this order.
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
    /** Per node: fallback devices reading it. */
    std::vector<std::vector<std::uint32_t>> fallbackFanout;
};

/**
 * Compile @p net's current device list: Kahn's algorithm over the
 * static-gate dependency edges, read off the netlist's own reader
 * lists. A node driven by a pass transistor or by nothing (a primary
 * input) is a boundary of the ordered region and contributes no edge.
 */
Levelization levelize(const Netlist &net);

/**
 * Compiled evaluation order over a finished Netlist.
 *
 * Build one after the netlist's construction phase is complete, then
 * either call settle() directly or attach() it so Netlist::settle
 * delegates here and existing drivers (TwoPhaseClock, GateChip, the
 * fault injector) transparently use the fast path.
 */
class LevelizedNetlist
{
  public:
    /** Compile @p netlist's current device list. */
    explicit LevelizedNetlist(Netlist &netlist);

    ~LevelizedNetlist();

    LevelizedNetlist(const LevelizedNetlist &) = delete;
    LevelizedNetlist &operator=(const LevelizedNetlist &) = delete;

    /** Route the netlist's settle() through this fast path. */
    void attach() { net.attachAccelerator(this); }

    /** Restore the event-driven settle(). */
    void detach();

    /**
     * Settle the netlist: consume the pending worklist, run flat
     * activity-gated passes over the ordered gates interleaved with
     * event-driven relaxation of the fallback devices, until no node
     * changes. Panics on oscillation, like Netlist::settle.
     */
    void settle(Picoseconds now);

    /** Static gates in the compiled topological order. */
    std::size_t orderedCount() const { return lev.topo.size(); }

    /** Pass transistors and cyclic gates left to the worklist. */
    std::size_t fallbackCount() const
    {
        return compiledDevices - lev.topo.size();
    }

    /** @{ Cumulative effort statistics across settle() calls. */
    std::uint64_t flatEvals() const { return nFlatEvals; }
    std::uint64_t fallbackEvals() const { return nFallbackEvals; }
    /** Ordered gates scanned and skipped because no input changed. */
    std::uint64_t gatedSkips() const { return nGatedSkips; }
    /** @} */

  private:
    bool writeNode(NodeId node, LogicValue v);
    bool evaluateFallback(std::uint32_t dev_idx, Picoseconds now);

    Netlist &net;
    /** Device count at compile time; settle() rejects a grown netlist. */
    std::size_t compiledDevices;

    const Levelization lev;

    /** Per device: forced evaluation pending (seeded from worklist). */
    std::vector<std::uint8_t> pending;
    /** Per node: changed since the last flat pass consumed it. */
    std::vector<std::uint8_t> dirty;
    std::vector<NodeId> touched;
    std::vector<std::uint32_t> worklist;

    std::uint64_t nFlatEvals = 0;
    std::uint64_t nFallbackEvals = 0;
    std::uint64_t nGatedSkips = 0;
};

} // namespace spm::gate

#endif // SPM_GATE_LEVELIZED_HH
