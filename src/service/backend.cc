#include "service/backend.hh"

#include <algorithm>
#include <exception>

#include "util/logging.hh"

namespace spm::service
{

namespace
{

/** All-false result for a window shorter than the pattern. */
WindowResult
trivialWindow(std::size_t window_len)
{
    WindowResult wr;
    wr.bits.resize(window_len);
    wr.completed = true;
    return wr;
}

/** Charge a finished run's beats; past the budget, discard its bits. */
WindowResult
chargeAfter(WindowResult wr, BeatWatchdog &dog)
{
    if (!dog.tick(wr.beats)) {
        wr.note = "watchdog tripped: " + std::to_string(wr.beats) +
                  " beats against budget " + std::to_string(dog.budget());
        wr.bits.clear();
        return wr;
    }
    wr.completed = true;
    return wr;
}

bool
hasWildcard(const std::vector<Symbol> &pattern)
{
    return std::find(pattern.begin(), pattern.end(), wildcardSymbol) !=
           pattern.end();
}

} // namespace

BehavioralBackend::BehavioralBackend(std::size_t num_cells)
    : cells(num_cells)
{
    spm_assert(cells > 0, "behavioral backend needs at least one cell");
}

WindowResult
BehavioralBackend::matchWindow(const std::vector<Symbol> &window,
                               const std::vector<Symbol> &pattern,
                               BeatWatchdog &dog)
{
    const std::size_t n = window.size();
    const std::size_t len = pattern.size();
    if (n == 0 || len > n)
        return trivialWindow(n);

    core::BehavioralChip chip(cells);
    if (chipPrep)
        chipPrep(chip);

    WindowResult wr;
    wr.bits.resize(n);

    // The feed-plan loop of runMatchProtocol, with two differences:
    // every beat is charged to the watchdog (a wedged chip is
    // cancelled mid-protocol, not discovered after an assert), and a
    // starved run returns a failed window instead of panicking --
    // from the service's seat, a chip that eats its inputs and emits
    // nothing is an operational fault, not a simulator bug.
    const core::ChipFeedPlan plan(cells, pattern, n);
    std::size_t collected = 0;
    for (Beat beat = 0; beat < plan.totalBeats() && collected < n;
         ++beat) {
        if (!dog.tick(1)) {
            wr.beats = dog.used();
            wr.note = "watchdog tripped at beat " +
                      std::to_string(dog.used()) + "/" +
                      std::to_string(dog.budget());
            return wr;
        }
        chip.feedPattern(plan.patternAt(beat));
        chip.feedControl(plan.controlAt(beat));
        chip.feedString(plan.stringAt(beat, window));
        chip.feedResult(plan.resultAt(beat));
        chip.step();
        ++wr.beats;

        const core::ResToken out = chip.resultOut();
        if (out.valid && collected < n) {
            wr.bits.set(collected, collected >= len - 1 && out.value);
            ++collected;
        }
    }

    if (collected < n) {
        wr.note = "starved: " + std::to_string(collected) + "/" +
                  std::to_string(n) + " results emerged";
        return wr;
    }
    wr.completed = true;
    return wr;
}

MatcherBackend::MatcherBackend(std::unique_ptr<core::Matcher> matcher_impl)
    : impl(std::move(matcher_impl))
{
    spm_assert(impl != nullptr, "matcher backend needs a matcher");
}

WindowResult
MatcherBackend::matchWindow(const std::vector<Symbol> &window,
                            const std::vector<Symbol> &pattern,
                            BeatWatchdog &dog)
{
    const std::size_t n = window.size();
    if (n == 0 || pattern.size() > n)
        return trivialWindow(n);

    WindowResult wr;
    try {
        wr.bits = impl->match(window, pattern);
    } catch (const std::exception &e) {
        wr.note = std::string("backend threw: ") + e.what();
        return wr;
    }
    if (wr.bits.size() != n) {
        wr.note = "backend returned " + std::to_string(wr.bits.size()) +
                  " bits for " + std::to_string(n) + " characters";
        wr.bits.clear();
        return wr;
    }

    // A blocking matcher cannot be stopped mid-run.
    wr.beats = static_cast<Beat>(2 * n + pattern.size() + 4);
    return chargeAfter(std::move(wr), dog);
}

GateBackend::GateBackend(std::size_t num_cells, BitWidth bits_per_char)
    : cells(num_cells), bits(bits_per_char), gate(num_cells, bits_per_char)
{
    spm_assert(cells > 0, "gate backend needs at least one cell");
}

void
GateBackend::dropQueue()
{
    queuedWindows.clear();
    queuedResults.clear();
    queueHead = 0;
}

void
GateBackend::prefetch(const std::vector<std::span<const Symbol>> &windows,
                      const std::vector<Symbol> &pattern)
{
    dropQueue();
    if (!supports(pattern))
        return;
    queuedPattern = pattern;
    for (const std::span<const Symbol> w : windows)
        queuedWindows.emplace_back(w.begin(), w.end());
    try {
        queuedResults = gate.matchLanes(queuedWindows, pattern);
    } catch (const std::exception &) {
        // Nothing queued: each window then runs alone through
        // matchWindow(), which reports the failure where it belongs.
        dropQueue();
    }
}

WindowResult
GateBackend::matchWindow(const std::vector<Symbol> &window,
                         const std::vector<Symbol> &pattern,
                         BeatWatchdog &dog)
{
    const bool queued = queueHead < queuedResults.size() &&
                        queuedWindows[queueHead] == window &&
                        queuedPattern == pattern;
    const std::size_t n = window.size();
    if (n == 0 || pattern.size() > n) {
        queueHead += queued ? 1 : 0;
        return trivialWindow(n);
    }

    WindowResult wr;
    if (queued) {
        wr.bits = std::move(queuedResults[queueHead].bits);
        wr.beats = queuedResults[queueHead].beats;
        ++queueHead;
        ++fromLanes;
    } else {
        // The queue stays: a miss is a re-run of a window already
        // served (after a cross-check mismatch) or a window nobody
        // prefetched, and the session's next window is still the head.
        try {
            wr.bits = gate.match(window, pattern);
        } catch (const std::exception &e) {
            wr.note = std::string("backend threw: ") + e.what();
            return wr;
        }
        wr.beats = gate.lastBeats();
    }

    wr = chargeAfter(std::move(wr), dog);
    if (!wr.completed)
        dropQueue();
    return wr;
}

WindowResult
SoftwareBackend::matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &pattern,
                             BeatWatchdog &dog)
{
    const std::size_t n = window.size();
    if (n == 0 || pattern.size() > n)
        return trivialWindow(n);

    WindowResult wr;
    core::Matcher &m = hasWildcard(pattern)
        ? static_cast<core::Matcher &>(reference)
        : static_cast<core::Matcher &>(kmp);
    wr.bits = m.match(window, pattern);
    wr.beats = static_cast<Beat>(n);
    return chargeAfter(std::move(wr), dog);
}

} // namespace spm::service
