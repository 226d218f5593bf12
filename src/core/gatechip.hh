/**
 * @file
 * The pattern matching chip at gate level.
 *
 * GateChip instantiates the Figure 3-6 comparator circuit and the
 * accumulator circuit -- in their positive and inverted twin versions,
 * alternating in a checkerboard -- for every cell of the bit-serial
 * organization, wires them with the dynamic shift register discipline
 * of Figure 3-5, and drives them from a two-phase non-overlapping
 * clock. It is the simulation equivalent of the fabricated prototype
 * (Plate 2: 8 cells of 2-bit characters).
 */

#ifndef SPM_CORE_GATECHIP_HH
#define SPM_CORE_GATECHIP_HH

#include <functional>
#include <memory>
#include <vector>

#include "core/matcher.hh"
#include "gate/netlist.hh"
#include "gate/planesim.hh"
#include "gate/stdcells.hh"
#include "gate/twophase.hh"

namespace spm::core
{

/**
 * Gate-level bit-serial pattern matcher chip.
 *
 * Cell (row, col) latches on clock phase (row + col) mod 2 and is the
 * positive twin when that parity is 0. All polarity bookkeeping for
 * the host is done by the feed/observe methods: callers always work
 * in positive logic.
 */
class GateChip
{
  public:
    /**
     * @param num_cells character cells (columns)
     * @param bits_per_char comparator rows
     * @param beat_period_ps beat period (250 ns on the prototype)
     * @param retention_ps dynamic storage retention (about 1 ms)
     */
    GateChip(std::size_t num_cells, BitWidth bits_per_char,
             Picoseconds beat_period_ps = prototypeBeatPs,
             Picoseconds retention_ps = gate::defaultRetentionPs);

    std::size_t cellCount() const { return numCells; }
    BitWidth bits() const { return numBits; }

    /**
     * A primary input and the polarity its edge cell reads: the
     * positive-logic bit b is driven as H exactly when b != inverted.
     */
    struct Pin
    {
        gate::NodeId node = gate::invalidNode;
        bool inverted = false;
    };

    /** @{ The input pins the feed methods below drive. */
    Pin patternPin(unsigned row) const;
    Pin stringPin(unsigned row) const;
    Pin lambdaPin() const { return {lambdaInNode, controlInverted()}; }
    Pin xPin() const { return {xInNode, controlInverted()}; }
    Pin resultInPin() const
    {
        return {rInNode, !positiveTwin(numBits, numCells - 1)};
    }
    /** @} */

    /** Present the pattern bit entering row @p row for this beat. */
    void setPatternBit(unsigned row, bool bit);

    /** Present the string bit entering row @p row for this beat. */
    void setStringBit(unsigned row, bool bit);

    /** Present the lambda / don't-care pair for this beat. */
    void setControl(bool lambda, bool x);

    /** Present the result-stream input bit for this beat. */
    void setResultIn(bool r);

    /** Run one beat of the two-phase clock. */
    void tick();

    /** Beats elapsed. */
    Beat beat() const { return clk.beat(); }

    /**
     * The result-stream output in positive logic; X (undefined charge
     * during pipeline warm-up, or after a retention failure) reads as
     * unknown via resultKnown().
     */
    bool resultOut() const;

    /** Whether the result output node holds a definite level. */
    bool resultKnown() const;

    /** The netlist node carrying the result-stream output. */
    gate::NodeId resultNode() const { return rOutNode; }

    /**
     * Whether the result node carries inverted polarity (the positive
     * twin emits inverted outputs); resultOut() undoes the inversion.
     */
    bool resultInverted() const { return rOutInverted; }

    /**
     * Stall the clock for @p duration_ps; returns how many dynamic
     * storage nodes lost their charge (Section 3.3.3 failure mode).
     */
    std::size_t stall(Picoseconds duration_ps)
    {
        return clk.stall(duration_ps);
    }

    /** The netlist, for inspection, layout and statistics. */
    const gate::Netlist &netlist() const { return net; }
    gate::Netlist &netlist() { return net; }

    /** The clock driver. */
    const gate::TwoPhaseClock &clock() const { return clk; }

  private:
    /** Checkerboard parity of cell (row, col). */
    unsigned parity(unsigned row, std::size_t col) const
    {
        return (row + static_cast<unsigned>(col)) % 2;
    }

    /** True when cell (row, col) is the positive twin. */
    bool positiveTwin(unsigned row, std::size_t col) const
    {
        return parity(row, col) == 0;
    }

    bool controlInverted() const { return !positiveTwin(numBits, 0); }

    void drive(Pin pin, bool value);

    std::size_t numCells;
    BitWidth numBits;
    gate::Netlist net;
    gate::TwoPhaseClock clk;

    std::vector<gate::NodeId> pInNodes;  ///< per comparator row
    std::vector<gate::NodeId> sInNodes;  ///< per comparator row
    gate::NodeId lambdaInNode;
    gate::NodeId xInNode;
    gate::NodeId rInNode;
    gate::NodeId rOutNode;
    bool rOutInverted;
};

/**
 * Matcher over the gate-level chip. Uses the same feed schedule as
 * the bit-serial behavioral model; results are collected by exit
 * beat (the hardware has no validity bits).
 *
 * Two entry points share that schedule. match() builds a fresh chip
 * per call and settles it as one scalar netlist through the
 * event-driven reference, Netlist::settle -- the path fault grading's
 * chip-prep tap and result observer need. matchLanes()
 * runs up to 64 windows at once, one per lane of the plane engine
 * (gate/planesim.hh): the schedule is data-independent, so every
 * window drives the same netlist with the same clock, pattern and
 * control stimulus, and only the string rows differ per lane.
 */
class GateLevelMatcher : public Matcher
{
  public:
    explicit GateLevelMatcher(std::size_t num_cells = 0,
                              BitWidth bits_per_char = 0)
        : cells(num_cells), bitsPerChar(bits_per_char)
    {
    }

    BitVec match(std::span<const Symbol> text,
                 std::span<const Symbol> pattern) override;

    std::string name() const override { return "systolic-gatelevel"; }

    Beat lastBeats() const { return beatsUsed; }

    /** One window's answer from matchLanes(). */
    struct LaneResult
    {
        /** Exactly what match() returns for the window. */
        BitVec bits;
        /** Exactly what lastBeats() reports after that match(). */
        Beat beats = 0;
    };

    /**
     * Match each of @p windows against @p pattern, 64 windows per
     * pass of the plane engine, and answer per window exactly as
     * match() would: same bits, same beat count. A lane past its
     * window's end is fed 0, which is what a shorter one-window run
     * is fed. Needs the explicit chip shape (cells and bits given at
     * construction). The chip, its settled snapshot and the engine
     * are built on the first call and reused; the stuck-at faults the
     * chip-prep hook leaves are re-applied to every lane as force
     * masks. The hook's other effects and the result observer apply
     * to match() only; lastEvals() and lastTransistors() are not
     * updated. The answers, one per window, live in the matcher until
     * its next matchLanes() call.
     */
    std::span<LaneResult> matchLanes(
        std::span<const std::span<const Symbol>> windows,
        std::span<const Symbol> pattern);

    /** Device evaluations spent by the last match() call. */
    std::uint64_t lastEvals() const { return evalsUsed; }

    /**
     * Word-wide device evaluations matchLanes() has spent so far: on a
     * clean clock, every device of each swept cone, whether or not its
     * output changed (gate::PlaneSim::wordEvals).
     */
    std::uint64_t laneWordEvals() const
    {
        return lanePlanes ? lanePlanes->wordEvals() : 0;
    }

    /** Transistor count of the last chip built. */
    unsigned lastTransistors() const { return transistors; }

    /**
     * Install a hook run on each freshly built chip before the match
     * protocol starts -- the seam fault campaigns use to lower
     * stuck-at faults onto the netlist (Netlist::forceStuckAt).
     */
    void setChipPrep(std::function<void(GateChip &)> prep)
    {
        chipPrep = std::move(prep);
        // The lane chip was prepared with the old hook.
        lanePlanes.reset();
        laneChip.reset();
    }

    /**
     * Install a hook run at every result-collection beat, right after
     * the protocol reads the chip's result output for text position
     * @p index -- the seam the fault grader uses to record replayable
     * observation points (fault/wordsim.hh).
     */
    void setResultObserver(
        std::function<void(std::size_t index, const GateChip &)> obs)
    {
        resultObserver = std::move(obs);
    }

  private:
    std::size_t cells;
    BitWidth bitsPerChar;
    Beat beatsUsed = 0;
    unsigned transistors = 0;
    std::uint64_t evalsUsed = 0;
    std::function<void(GateChip &)> chipPrep;
    std::function<void(std::size_t, const GateChip &)> resultObserver;

    // The lane path, built by the first matchLanes() call.
    std::unique_ptr<GateChip> laneChip;
    std::vector<gate::LogicValue> laneSnapshot; ///< settled, unprepared
    std::vector<gate::PlaneForce> laneForces;   ///< chipPrep's stuck nodes
    std::unique_ptr<gate::PlaneSim> lanePlanes;
    // Its scratch, kept from call to call: the answers, the windows
    // that ride lanes and their answers, and the transposed windows.
    std::vector<LaneResult> laneOut;
    std::vector<std::span<const Symbol>> liveWindows;
    std::vector<LaneResult *> liveResults;
    std::vector<std::uint64_t> strPlanes;
};

} // namespace spm::core

#endif // SPM_CORE_GATECHIP_HH
