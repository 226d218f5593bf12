/**
 * @file
 * Mukhopadhyay's broadcast cellular matcher.
 *
 * "[Mukhopadhyay 79] has proposed several machines in which each cell
 * stores a character of the pattern, and the text string is broadcast
 * character by character to all cells. The broadcast communication is
 * the major disadvantage of this algorithm. Each cell requires a
 * connection to the broadcast channel, which either increases the
 * power requirements of the system as a whole or decreases its speed"
 * (Section 3.3.1).
 *
 * The machine is simulated beat for beat, and the broadcast cost is
 * made explicit with a first-order RC wire model: driving k cell
 * loads either stretches the beat (single driver) or costs k units of
 * driver power (distributed repeaters).
 */

#ifndef SPM_BASELINES_BROADCAST_HH
#define SPM_BASELINES_BROADCAST_HH

#include "core/matcher.hh"

namespace spm::baselines
{

/** Cost model for the broadcast channel. */
struct BroadcastCost
{
    /** Cells hanging on the channel. */
    std::size_t fanout = 0;

    /**
     * Beat period when one driver charges the whole channel:
     * base * (1 + fanout / driverStrength), linear in the load.
     */
    Picoseconds stretchedBeatPs(Picoseconds base_ps) const;

    /**
     * Relative driver power when the beat is held at the base period
     * instead: proportional to the load being switched every beat.
     */
    double driverPowerUnits() const
    {
        return static_cast<double>(fanout);
    }

    /** Loads one minimum-size driver can switch without slowdown. */
    static constexpr std::size_t driverStrength = 4;
};

/**
 * Beat-level simulation of the broadcast matcher: a loading phase
 * stores the pattern (one character per beat), then each text
 * character is broadcast to every cell; cell j compares it with its
 * stored p_j and ANDs the partial result arriving from cell j-1.
 */
class BroadcastMatcher : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override;

    std::string name() const override { return "broadcast-mukhopadhyay"; }

    /** Beats of the last match() call, including pattern loading. */
    Beat lastBeats() const { return beatsUsed; }

    /** Beats spent loading the pattern before matching could begin. */
    Beat lastLoadBeats() const { return loadBeats; }

    /** Broadcast cost of the last match() call. */
    BroadcastCost lastCost() const { return cost; }

  private:
    Beat beatsUsed = 0;
    Beat loadBeats = 0;
    BroadcastCost cost;
};

} // namespace spm::baselines

#endif // SPM_BASELINES_BROADCAST_HH
