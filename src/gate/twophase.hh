/**
 * @file
 * The two-phase non-overlapping clock driver.
 *
 * "A clock with two non-overlapping phases controls the pass
 * transistors. Adjacent transistors are turned on by opposite phases of
 * the clock, so that there is never a closed path between inverters
 * that are separated by two transistors" (Section 3.2.2, Figure 3-5).
 *
 * One *beat* corresponds to one phase pulse: cells whose pass
 * transistors are clocked by phi1 latch on even beats, cells clocked by
 * phi2 latch on odd beats. This is exactly how the chip makes "the
 * alternation of active and idle inverters ... mirror the alternation
 * of active and idle cells in the algorithm."
 */

#ifndef SPM_GATE_TWOPHASE_HH
#define SPM_GATE_TWOPHASE_HH

#include "gate/netlist.hh"
#include "util/types.hh"

namespace spm::gate
{

/**
 * Drives the phi1/phi2 clock nodes of a netlist through beats.
 *
 * The driver owns simulated time. Each beat raises exactly one phase,
 * lets the circuit settle, and lowers it again, guaranteeing
 * non-overlap by construction. stall() models a stopped clock so that
 * dynamic-charge decay (Section 3.3.3) can be exercised.
 */
class TwoPhaseClock
{
  public:
    /**
     * @param net the netlist whose clocks we drive; phi1/phi2 nodes
     *        are created here and marked as inputs
     * @param beat_period_ps duration of one beat (250 ns prototype)
     * @param retention_ps dynamic node retention limit (~1 ms)
     */
    TwoPhaseClock(Netlist &net,
                  Picoseconds beat_period_ps = prototypeBeatPs,
                  Picoseconds retention_ps = defaultRetentionPs);

    /** The phi1 clock node (even beats). */
    NodeId phi1() const { return phi1Node; }

    /** The phi2 clock node (odd beats). */
    NodeId phi2() const { return phi2Node; }

    /** Clock node for a cell at checkerboard parity @p parity. */
    NodeId phaseFor(unsigned parity) const
    {
        return parity % 2 == 0 ? phi1Node : phi2Node;
    }

    /** The phase pulsed on beat @p beat: phi1 on even beats. */
    NodeId phaseAt(Beat beat) const
    {
        return phaseFor(static_cast<unsigned>(beat % 2));
    }

    /**
     * Run one beat: pulse the phase selected by the current beat
     * parity and settle the netlist before and after the falling edge.
     */
    void tickBeat();

    /** Run @p n beats. */
    void run(Beat n);

    /** Current beat count. */
    Beat beat() const { return beatCount; }

    /** Simulated time now. */
    Picoseconds now() const { return timePs; }

    /**
     * Stop the clock for @p duration_ps of simulated time, then apply
     * charge decay. Returns the number of storage nodes that lost
     * their data -- nonzero once the stall exceeds the retention
     * limit, reproducing the dynamic shift register failure mode.
     */
    std::size_t stall(Picoseconds duration_ps);

    /** Lower both phases and settle (used at initialization). */
    void quiesce();

  private:
    Netlist &netlist;
    Picoseconds periodPs;
    Picoseconds retentionPs;
    NodeId phi1Node;
    NodeId phi2Node;
    Beat beatCount = 0;
    Picoseconds timePs = 0;
};

} // namespace spm::gate

#endif // SPM_GATE_TWOPHASE_HH
