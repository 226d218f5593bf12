#include "systolic/engine.hh"

#include "systolic/trace.hh"
#include "util/logging.hh"

namespace spm::systolic
{

Engine::Engine(Picoseconds beat_period_ps)
    : beatClock(beat_period_ps),
      beatsCtr(registry.counter("beats")),
      evalsCtr(registry.counter("evaluations")),
      activeCtr(registry.counter("active_cell_beats")),
      idleCtr(registry.counter("idle_cell_beats"))
{
}

void
Engine::onBeatStart(BeatHook hook)
{
    startHooks.push_back(std::move(hook));
}

void
Engine::onBeatEnd(BeatHook hook)
{
    endHooks.push_back(std::move(hook));
}

void
Engine::onAfterCommit(BeatHook hook)
{
    commitHooks.push_back(std::move(hook));
}

void
Engine::step()
{
    const Beat beat = beatClock.beat();

    for (auto &hook : startHooks)
        hook(beat);

    // Phase Phi1: every cell computes its staged outputs from latched
    // inputs. No cell can see another's same-beat writes.
    std::uint64_t active = 0;
    for (auto &c : cells) {
        c->evaluate(beat);
        if (c->activeOn(beat))
            ++active;
    }
    evalsCtr.increment(cells.size());
    activeCtr.increment(active);
    idleCtr.increment(cells.size() - active);
    beatClock.advancePhase();

    // Phase Phi2: all staged outputs become visible simultaneously.
    for (auto &c : cells)
        c->commit();

    // Fault models corrupt freshly committed latches here, so the
    // upset is visible to neighbors on the next beat exactly as a
    // hardware glitch between clock edges would be.
    for (auto &hook : commitHooks)
        hook(beat);

    lastUtil = cells.empty()
        ? 0.0
        : static_cast<double>(active) / static_cast<double>(cells.size());
    utilStat.sample(lastUtil);

    for (auto &hook : endHooks)
        hook(beat);

    if (trace)
        trace->snapshot(*this, beat);

    beatClock.advancePhase();
    beatsCtr.increment();
}

void
Engine::run(Beat n)
{
    for (Beat i = 0; i < n; ++i)
        step();
}

CellBase &
Engine::cell(std::size_t idx)
{
    spm_assert(idx < cells.size(), "cell index ", idx, " out of range ",
               cells.size());
    return *cells[idx];
}

const CellBase &
Engine::cell(std::size_t idx) const
{
    spm_assert(idx < cells.size(), "cell index ", idx, " out of range ",
               cells.size());
    return *cells[idx];
}

} // namespace spm::systolic
