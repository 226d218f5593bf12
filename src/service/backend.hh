/**
 * @file
 * Ladder rungs: backends the service can stream windows through.
 *
 * A ServiceBackend matches one text window under a cooperative beat
 * budget. The service owns an ordered ladder of them -- gate-level
 * netlist first (highest fidelity), the behavioral array next, and a
 * software baseline (KMP for exact patterns, the reference definition
 * under wild cards) as the floor that cannot be wedged by an array
 * fault. The hardware/software co-design point: the host-side
 * software path is a first-class fallback, not an afterthought.
 *
 * BehavioralBackend is driven beat by beat, ticking the watchdog on
 * every step, so a fault-wedged array is cancelled mid-protocol;
 * MatcherBackend adapts any blocking core::Matcher (bit-serial,
 * cascade, multipass, the bit-sliced kernel) by charging its beat
 * count after the fact. GateBackend is the gate-level rung: it
 * charges the same way, and it takes the session's next windows in
 * one prefetch() call and simulates them together, one window per
 * lane of the 64-lane plane engine. BehavioralBackend and GateBackend
 * expose a chip-prep seam so the fault injector of src/fault can
 * attack the chip each window runs on.
 */

#ifndef SPM_SERVICE_BACKEND_HH
#define SPM_SERVICE_BACKEND_HH

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "baselines/kmp.hh"
#include "core/behavioral.hh"
#include "core/gatechip.hh"
#include "core/matcher.hh"
#include "core/reference.hh"
#include "service/watchdog.hh"
#include "util/strings.hh"
#include "util/types.hh"

namespace spm::service
{

/** What one window produced. */
struct WindowResult
{
    /** r_i bits, one per window character; valid when completed. */
    BitVec bits;
    /** Beats this window consumed (charged to the watchdog). */
    Beat beats = 0;
    /**
     * True when all window results emerged within budget. False means
     * the watchdog tripped or the backend failed; bits are invalid.
     */
    bool completed = false;
    /** Failure note for the journal ("watchdog", exception text). */
    std::string note;
};

/** One rung of the degradation ladder. */
class ServiceBackend
{
  public:
    virtual ~ServiceBackend() = default;

    virtual std::string name() const = 0;

    /** name(), interned on first use: a view a response can keep. */
    std::string_view internedName()
    {
        return interned.empty() ? interned = intern(name()) : interned;
    }

    /** Whether this rung can serve the request shape at all. */
    virtual bool supports(std::span<const Symbol> pattern) const
    {
        (void)pattern;
        return true;
    }

    /**
     * Match @p window against @p pattern, charging beats to @p dog.
     * Implementations must stop and report completed = false once the
     * watchdog trips; they must not throw.
     */
    virtual WindowResult matchWindow(std::span<const Symbol> window,
                                     std::span<const Symbol> pattern,
                                     BeatWatchdog &dog) = 0;

    /**
     * The windows the session will ask for next, in order, each one
     * exactly as it will reach matchWindow(). A rung that can answer
     * several windows at once computes them here; matchWindow() stays
     * the only call that charges beats and reports results. The
     * windows view the session's request and are valid for this call
     * only; a rung that keeps them keeps copies. The default ignores
     * the hint. Must not throw.
     */
    virtual void prefetch(std::span<const std::span<const Symbol>> windows,
                          std::span<const Symbol> pattern)
    {
        (void)windows;
        (void)pattern;
    }

  private:
    std::string_view interned;
};

/**
 * The behavioral array driven beat by beat under the watchdog. A
 * fresh chip is built per window (exactly as BehavioralMatcher does),
 * and the optional chip-prep hook lets fault campaigns corrupt it.
 */
class BehavioralBackend : public ServiceBackend
{
  public:
    /** @param num_cells character cells per chip; must be > 0. */
    explicit BehavioralBackend(std::size_t num_cells);

    std::string name() const override { return "systolic-behavioral"; }

    /** Pattern must fit the array (no recirculating multipass here). */
    bool supports(std::span<const Symbol> pattern) const override
    {
        return !pattern.empty() && pattern.size() <= cells;
    }

    WindowResult matchWindow(std::span<const Symbol> window,
                             std::span<const Symbol> pattern,
                             BeatWatchdog &dog) override;

    /** Hook run on every freshly built chip (fault injection seam). */
    void setChipPrep(std::function<void(core::BehavioralChip &)> prep)
    {
        chipPrep = std::move(prep);
    }

  private:
    std::size_t cells;
    std::function<void(core::BehavioralChip &)> chipPrep;
};

/**
 * Adapter rung over any blocking core::Matcher. The matcher runs to
 * completion, then the protocol's beat estimate for the window is
 * charged in one tick; exceeding the budget post hoc still cancels
 * the window, it just cannot stop the run mid-way. Exceptions from
 * the matcher are converted to a failed window, never propagated.
 */
class MatcherBackend : public ServiceBackend
{
  public:
    /** @param matcher_impl the wrapped matcher */
    explicit MatcherBackend(std::unique_ptr<core::Matcher> matcher_impl);

    std::string name() const override { return impl->name(); }

    bool supports(std::span<const Symbol> pattern) const override
    {
        if (pattern.empty())
            return false;
        if (!impl->supportsWildcards()) {
            for (Symbol p : pattern)
                if (p == wildcardSymbol)
                    return false;
        }
        return true;
    }

    WindowResult matchWindow(std::span<const Symbol> window,
                             std::span<const Symbol> pattern,
                             BeatWatchdog &dog) override;

  private:
    std::unique_ptr<core::Matcher> impl;
};

/**
 * The gate-level rung: core::GateLevelMatcher with the service's
 * fixed chip shape. prefetch() runs the next windows (at most 64 per
 * plane pass) through GateLevelMatcher::matchLanes and queues the
 * answers. matchWindow() serves the queue head when its window and
 * pattern are the very spans queued (same data and length); otherwise
 * it runs that window alone through match() and keeps the queue, so a
 * re-run of a window after a cross-check mismatch takes the one-window
 * path and the window after it still rides its lane. No text is
 * copied: every session prefetches before its first window on a rung,
 * and every prefetch replaces the queue, so the queue only holds spans
 * of the live session that prefetched last. A decorator that does not
 * forward prefetch() leaves the queue empty, so every window runs
 * alone.
 * Either way the window's beat count is charged after the fact, as
 * MatcherBackend charges, and a trip drops the queue. Each lane is
 * the one-window chip on the one-window schedule, so the two paths
 * answer identically.
 */
class GateBackend : public ServiceBackend
{
  public:
    /** @param num_cells chip cells; @param bits_per_char comparator rows */
    GateBackend(std::size_t num_cells, BitWidth bits_per_char);

    std::string name() const override { return gate.name(); }

    /**
     * Pattern must fit the array, and the chip must be buildable:
     * GateChip has 1..8 comparator rows.
     */
    bool supports(std::span<const Symbol> pattern) const override
    {
        return bits >= 1 && bits <= 8 && !pattern.empty() &&
               pattern.size() <= cells;
    }

    void prefetch(std::span<const std::span<const Symbol>> windows,
                  std::span<const Symbol> pattern) override;

    WindowResult matchWindow(std::span<const Symbol> window,
                             std::span<const Symbol> pattern,
                             BeatWatchdog &dog) override;

    /** The wrapped matcher, for its chip-prep hook. */
    core::GateLevelMatcher &matcher() { return gate; }

    /** Windows answered from a lane pass; the rest ran alone. */
    std::uint64_t laneWindows() const { return fromLanes; }

  private:
    std::size_t cells;
    BitWidth bits;
    core::GateLevelMatcher gate;

    void dropQueue();

    /** Prefetched windows and their answers, from queueHead on. */
    std::span<const Symbol> queuedPattern;
    std::vector<std::span<const Symbol>> queuedWindows;
    std::span<core::GateLevelMatcher::LaneResult> queuedResults;
    std::size_t queueHead = 0;
    std::uint64_t fromLanes = 0;
};

/**
 * The software floor: KMP when the pattern is exact, the reference
 * definition when it has wild cards. Host CPU work is charged at one
 * beat per window character, half the hardware protocol's rate, so
 * the floor fits comfortably in any budget a hardware rung had.
 */
class SoftwareBackend : public ServiceBackend
{
  public:
    std::string name() const override { return "software-baseline"; }

    bool supports(std::span<const Symbol> pattern) const override
    {
        return !pattern.empty();
    }

    WindowResult matchWindow(std::span<const Symbol> window,
                             std::span<const Symbol> pattern,
                             BeatWatchdog &dog) override;

  private:
    baselines::KmpMatcher kmp;
    core::ReferenceMatcher reference;
};

} // namespace spm::service

#endif // SPM_SERVICE_BACKEND_HH
