/**
 * @file
 * The systolic simulation engine.
 *
 * The engine owns a set of cells, advances the beat clock, and enforces
 * the evaluate-then-commit discipline that makes all data appear to move
 * simultaneously (Section 3.2.1: "All characters on the chip move during
 * each beat"). It also collects the per-beat activity statistics that
 * experiment E3 uses to demonstrate the 50% checkerboard duty cycle.
 */

#ifndef SPM_SYSTOLIC_ENGINE_HH
#define SPM_SYSTOLIC_ENGINE_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "systolic/cell.hh"
#include "systolic/clock.hh"
#include "telemetry/metrics.hh"
#include "util/stats.hh"

namespace spm::systolic
{

class TraceRecorder;

/**
 * Drives a collection of cells beat by beat.
 *
 * Cells are owned by the engine. Hooks may be attached to run before
 * evaluation (e.g., to feed input streams) and after commit (e.g., to
 * sample output streams); hooks see a consistent, fully latched state.
 */
class Engine
{
  public:
    /** Hook invoked once per beat. */
    using BeatHook = std::function<void(Beat)>;

    explicit Engine(Picoseconds beat_period_ps = prototypeBeatPs);

    /** Add a cell; returns a reference with engine-lifetime validity. */
    template <typename CellT, typename... Args>
    CellT &
    makeCell(Args &&...args)
    {
        auto cell = std::make_unique<CellT>(std::forward<Args>(args)...);
        CellT &ref = *cell;
        cells.push_back(std::move(cell));
        return ref;
    }

    /** Register a hook run at the start of each beat, before evaluate. */
    void onBeatStart(BeatHook hook);

    /** Register a hook run at the end of each beat, after commit. */
    void onBeatEnd(BeatHook hook);

    /**
     * Register a hook run immediately after commit, before the
     * end-of-beat hooks and before statistics sample the beat. This
     * is the fault-injection point: latch state mutated here (via
     * CellBase::applyFault) is exactly what neighboring cells read on
     * the next beat, the same visibility a hardware upset would have.
     */
    void onAfterCommit(BeatHook hook);

    /** Advance one beat: hooks, evaluate all, commit all, hooks. */
    void step();

    /** Advance @p n beats. */
    void run(Beat n);

    /** The beat clock. */
    const Clock &clock() const { return beatClock; }
    Clock &clock() { return beatClock; }

    /** Number of cells owned. */
    std::size_t cellCount() const { return cells.size(); }

    /** Access cell @p idx in insertion order. */
    CellBase &cell(std::size_t idx);
    const CellBase &cell(std::size_t idx) const;

    /** Attach a trace recorder that snapshots cells after each beat. */
    void attachTrace(TraceRecorder *recorder) { trace = recorder; }

    /** Fraction of cells active (valid meeting) on the last beat. */
    double lastUtilization() const { return lastUtil; }

    /** Utilization sampled across all beats so far. */
    const RunningStat &utilization() const { return utilStat; }

    /**
     * Simulation statistics: beats, evaluations, active_cell_beats
     * (cells with a valid meeting), idle_cell_beats (activations the
     * checkerboard gated away). E3 reads its duty cycle from these
     * counters rather than inferring it from the schedule, and
     * utilization() carries the per-beat spread. Counter names are
     * bare ("beats"); statsDump() prefixes "engine.".
     */
    const telem::Registry &stats() const { return registry; }

    /** The counters as "engine.x = n" lines. */
    std::string statsDump() const
    {
        return registry.snapshot().renderText("engine.");
    }

  private:
    Clock beatClock;
    std::vector<std::unique_ptr<CellBase>> cells;
    std::vector<BeatHook> startHooks;
    std::vector<BeatHook> commitHooks;
    std::vector<BeatHook> endHooks;
    TraceRecorder *trace = nullptr;

    // Engines are created per match window on hot service paths, so
    // each keeps a private single-stripe registry (one engine, one
    // stepping thread), read through stats() and statsDump().
    telem::Registry registry{1};
    telem::Counter &beatsCtr;
    telem::Counter &evalsCtr;
    telem::Counter &activeCtr;
    telem::Counter &idleCtr;
    RunningStat utilStat;
    double lastUtil = 0.0;
};

} // namespace spm::systolic

#endif // SPM_SYSTOLIC_ENGINE_HH
