/**
 * @file
 * E13 -- throughput fast paths: how fast can the simulator stack
 * answer the Section 3.1 problem when raw chars/sec is the goal?
 *
 * Three fast paths are measured against the engines they shadow:
 *
 *   bit-sliced     the bit-sliced kernel's portable scalar tier (64
 *                  text positions per machine word) vs the scalar
 *                  behavioral array and the reference definition;
 *   sharded        the multi-threaded service front end vs the
 *                  single-stream service, in wall-clock chars/sec and
 *                  in critical-path beats (the slowest shard -- the
 *                  repo's figure of merit, immune to the host's core
 *                  count);
 *   gate engine    the 64-lane plane engine (matchLanes) vs the
 *                  event-driven reference (match()) on the same chip
 *                  windows, in device evaluations and wall time.
 *
 * The report writes every headline number to BENCH_E13.json
 * (override with --json <path>; --smoke shrinks the sweep for CI).
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "core/behavioral.hh"
#include "core/gatechip.hh"
#include "core/reference.hh"
#include "core/simdpar.hh"
#include "service/sharded.hh"
#include "util/table.hh"

namespace
{

using namespace spm;
using namespace spm::core;
using spm::bench::jsonReport;
using spm::bench::makeMatchWorkload;
using spm::bench::smokeMode;

double
secondsOf(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

/** Wall-clock chars/sec of one match call, best of @p reps. */
template <typename MatcherT>
double
charsPerSec(MatcherT &m, const spm::bench::MatchWorkload &w,
            int reps = 3)
{
    double best = 1e300;
    for (int i = 0; i < reps; ++i) {
        BitVec r;
        const double s = secondsOf(
            [&] { r = m.match(w.text, w.pattern); });
        benchmark::DoNotOptimize(r);
        best = std::min(best, s);
    }
    return static_cast<double>(w.text.size()) / best;
}

service::ShardedConfig
shardedConfig(unsigned threads, std::size_t text_len)
{
    service::ShardedConfig cfg;
    cfg.base.alphabetBits = 2;
    cfg.base.maxTextLen = std::max<std::size_t>(text_len, 1) * 2;
    cfg.base.chunkChars = 512;
    cfg.base.crossCheck = false; // measure serving, not auditing
    cfg.base.journalEnabled = false;
    cfg.threads = threads;
    cfg.minShardChars = 1024;
    return cfg;
}

void
bitSlicedReport()
{
    const std::size_t big = smokeMode() ? 16384 : 1048576;
    const std::vector<std::size_t> sizes =
        smokeMode() ? std::vector<std::size_t>{4096, big}
                    : std::vector<std::size_t>{65536, 262144, big};
    const std::size_t k = 8;

    Table table("Bit-sliced kernel (scalar tier) vs scalar engines "
                "(2-bit alphabet, k = 8, 12% wild cards)");
    table.setHeader({"text chars", "behavioral Mchars/s",
                     "reference Mchars/s", "bit-sliced Mchars/s",
                     "speedup vs behavioral", "agrees"});
    double big_speedup = 0;
    for (const std::size_t n : sizes) {
        const auto w = makeMatchWorkload(n, k, 2, 0.12);
        BehavioralMatcher behav(k);
        ReferenceMatcher ref;
        SimdParallelMatcher scalar(SimdIsa::Scalar);

        const double cs_b = charsPerSec(behav, w);
        const double cs_r = charsPerSec(ref, w);
        const double cs_s = charsPerSec(scalar, w);
        const bool agrees = scalar.match(w.text, w.pattern) ==
                            ref.match(w.text, w.pattern);
        const double speedup = cs_s / cs_b;
        if (n == big)
            big_speedup = speedup;
        table.addRowOf(n, Table::fixed(cs_b / 1e6, 2),
                       Table::fixed(cs_r / 1e6, 2),
                       Table::fixed(cs_s / 1e6, 2),
                       Table::fixed(speedup, 1), agrees ? "yes" : "NO");
        const std::string p = "simd_scalar.n" + std::to_string(n) + ".";
        jsonReport().set(p + "behavioral_chars_per_sec", cs_b);
        jsonReport().set(p + "reference_chars_per_sec", cs_r);
        jsonReport().set(p + "simd_scalar_chars_per_sec", cs_s);
        jsonReport().set(p + "speedup_vs_behavioral", speedup);
        jsonReport().set(p + "agrees", agrees ? "yes" : "no");
    }
    table.print();
    jsonReport().set("simd_scalar.big_text_chars",
                     static_cast<double>(big));
    jsonReport().set("simd_scalar.big_speedup_vs_behavioral", big_speedup);
    std::printf("\nShape check: the bit-sliced kernel's scalar tier is "
                "%.0fx the\n"
                "scalar behavioral array on the %zu-char text\n"
                "(acceptance floor: 10x on 1 MB in a Release build).\n",
                big_speedup, big);
}

void
arenaReport()
{
    // The arena satellite: a reused matcher instance must stop paying
    // the per-call plane/eq/result allocations. Measured as a burst
    // of back-to-back calls on a mid-size text -- cold constructs a
    // fresh matcher per call, warm reuses one -- plus a direct check
    // that the arena footprint goes quiescent after the first call.
    const std::size_t n = smokeMode() ? 4096 : 65536;
    const int calls = smokeMode() ? 40 : 200;
    const auto w = makeMatchWorkload(n, 8, 2, 0.12);

    double cold_s = 1e300;
    double warm_s = 1e300;
    SimdParallelMatcher warm(SimdIsa::Scalar);
    warm.match(w.text, w.pattern); // size the arena
    const std::size_t bytes_after_first = warm.arenaBytes();
    for (int rep = 0; rep < 3; ++rep) {
        cold_s = std::min(cold_s, secondsOf([&] {
            for (int i = 0; i < calls; ++i) {
                SimdParallelMatcher cold(SimdIsa::Scalar);
                auto r = cold.match(w.text, w.pattern);
                benchmark::DoNotOptimize(r);
            }
        }));
        warm_s = std::min(warm_s, secondsOf([&] {
            for (int i = 0; i < calls; ++i) {
                auto r = warm.match(w.text, w.pattern);
                benchmark::DoNotOptimize(r);
            }
        }));
    }
    const double total = static_cast<double>(n) * calls;
    const double cs_cold = total / cold_s;
    const double cs_warm = total / warm_s;
    const bool stable = warm.arenaBytes() == bytes_after_first;

    Table table("Scalar-tier arena reuse (burst of " +
                std::to_string(calls) + " calls, n = " +
                std::to_string(n) + ")");
    table.setHeader({"mode", "Mchars/s", "arena stable"});
    table.addRowOf("cold (fresh matcher/call)",
                   Table::fixed(cs_cold / 1e6, 2), "-");
    table.addRowOf("warm (reused arena)", Table::fixed(cs_warm / 1e6, 2),
                   stable ? "yes" : "NO");
    table.print();

    jsonReport().set("simd_scalar.arena_cold_chars_per_sec", cs_cold);
    jsonReport().set("simd_scalar.arena_warm_chars_per_sec", cs_warm);
    jsonReport().set("simd_scalar.arena_warm_speedup", cs_warm / cs_cold);
    jsonReport().set("simd_scalar.arena_stable", stable ? "yes" : "no");
    std::printf("\nShape check: a warm matcher is %.2fx a cold one on "
                "%d-call bursts,\nand its arena footprint is %s after "
                "the first call.\n",
                cs_warm / cs_cold, calls,
                stable ? "quiescent" : "STILL GROWING");
}

void
shardedReport()
{
    const std::size_t n = smokeMode() ? 8192 : 262144;
    const std::size_t k = 8;
    const auto w = makeMatchWorkload(n, k, 2, 0.12);
    service::MatchRequest req;
    req.id = 13;
    req.text = w.text;
    req.pattern = w.pattern;

    Table table("Sharded service scaling (software rung, text n = " +
                std::to_string(n) + ")");
    table.setHeader({"threads", "shards", "wall Mchars/s",
                     "critical beats", "total beats",
                     "critical-path speedup"});
    Beat base_critical = 0;
    double scaling = 0;
    for (const unsigned threads : {1u, 2u, 4u}) {
        service::ShardedMatchService svc(shardedConfig(threads, n));
        service::MatchResponse resp;
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep)
            best = std::min(best,
                            secondsOf([&] { resp = svc.serve(req); }));
        if (!resp.ok()) {
            std::printf("sharded serve failed: %s\n",
                        resp.error.detail.c_str());
            return;
        }
        if (threads == 1)
            base_critical = svc.lastCriticalBeats();
        const double speedup =
            static_cast<double>(base_critical) /
            static_cast<double>(svc.lastCriticalBeats());
        if (threads == 4)
            scaling = speedup;
        const double cs = static_cast<double>(n) / best;
        table.addRowOf(threads, svc.lastShards(),
                       Table::fixed(cs / 1e6, 2),
                       svc.lastCriticalBeats(), svc.lastTotalBeats(),
                       Table::fixed(speedup, 2));
        const std::string p =
            "sharded.threads" + std::to_string(threads) + ".";
        jsonReport().set(p + "shards",
                         static_cast<double>(svc.lastShards()));
        jsonReport().set(p + "wall_chars_per_sec", cs);
        jsonReport().set(p + "critical_beats",
                         static_cast<double>(svc.lastCriticalBeats()));
        jsonReport().set(p + "total_beats",
                         static_cast<double>(svc.lastTotalBeats()));
    }
    table.print();
    jsonReport().set("sharded.critical_path_speedup_1_to_4", scaling);
    std::printf(
        "\nShape check: critical-path beats (the slowest shard; what a\n"
        "host with one chip per shard waits for) improve %.2fx from 1\n"
        "to 4 threads (acceptance floor: 3x). Wall-clock chars/sec\n"
        "only tracks that figure when the host has 4 idle cores; this\n"
        "machine has %u.\n",
        scaling, std::thread::hardware_concurrency());
}

void
gateEngineReport()
{
    // paper_chip-sized windows: the 8-cell x 2-bit prototype, k = 8,
    // 32-char chunks re-presenting the k - 1 overlap characters. The
    // same count runs in --smoke so the speedup keeps its meaning.
    const std::size_t cells = 8;
    const std::size_t k = 8;
    const std::size_t window_chars = 32 + k - 1;
    const std::size_t window_count = 64;
    const int reps = smokeMode() ? 3 : 10;
    const auto w = makeMatchWorkload(window_chars * window_count, k, 2, 0.12);
    std::vector<std::vector<Symbol>> windows;
    for (std::size_t i = 0; i < window_count; ++i)
        windows.emplace_back(w.text.begin() + i * window_chars,
                             w.text.begin() + (i + 1) * window_chars);

    GateLevelMatcher event(cells, 2);
    GateLevelMatcher lanes(cells, 2);
    ReferenceMatcher ref;

    std::vector<BitVec> r_event(window_count);
    std::vector<Beat> beats_event(window_count);
    std::uint64_t event_evals = 0;
    double s_event = 1e300;
    for (int rep = 0; rep < reps; ++rep) {
        event_evals = 0;
        s_event = std::min(s_event, secondsOf([&] {
            for (std::size_t i = 0; i < window_count; ++i) {
                r_event[i] = event.match(windows[i], w.pattern);
                beats_event[i] = event.lastBeats();
                event_evals += event.lastEvals();
            }
        }));
    }

    // The first call builds the lane chip, its snapshot and the
    // engine; the timed calls reuse them, as a serving rung does.
    std::vector<GateLevelMatcher::LaneResult> r_lanes =
        lanes.matchLanes(windows, w.pattern);
    const std::uint64_t evals_before = lanes.laneWordEvals();
    r_lanes = lanes.matchLanes(windows, w.pattern);
    const std::uint64_t lane_evals = lanes.laneWordEvals() - evals_before;
    double s_lanes = 1e300;
    for (int rep = 0; rep < reps * 4; ++rep)
        s_lanes = std::min(s_lanes, secondsOf([&] {
            r_lanes = lanes.matchLanes(windows, w.pattern);
        }));

    bool agrees = true;
    for (std::size_t i = 0; i < window_count; ++i)
        agrees = agrees && r_lanes[i].bits == r_event[i] &&
                 r_lanes[i].beats == beats_event[i] &&
                 r_event[i] == ref.match(windows[i], w.pattern);

    Table table("Gate-level engines on the same windows (" +
                std::to_string(window_count) + " x " +
                std::to_string(window_chars) + " chars, " +
                std::to_string(cells) + " cells, k = 8, 2 bits)");
    table.setHeader({"engine", "device evals", "wall us", "agrees"});
    table.addRowOf("event-driven match()", event_evals,
                   Table::fixed(s_event * 1e6, 0), "yes");
    table.addRowOf("64-lane matchLanes() (word evals)", lane_evals,
                   Table::fixed(s_lanes * 1e6, 0), agrees ? "yes" : "NO");
    table.print();

    const double speedup = s_event / s_lanes;
    jsonReport().set("gate_engine.windows",
                     static_cast<double>(window_count));
    jsonReport().set("gate_engine.event_evals",
                     static_cast<double>(event_evals));
    jsonReport().set("gate_engine.lane_word_evals",
                     static_cast<double>(lane_evals));
    jsonReport().set("gate_engine.event_us", s_event * 1e6);
    jsonReport().set("gate_engine.lanes_us", s_lanes * 1e6);
    jsonReport().set("gate_engine.lanes_speedup", speedup);
    jsonReport().set("gate_engine.agrees", agrees ? "yes" : "no");
    std::printf("\nShape check: one 64-lane pass answers every window "
                "bit- and beat-identically\nto the event-driven "
                "reference, %.1fx faster in wall time.\n", speedup);
}

void
printReport()
{
    spm::bench::jsonDefaultPath("BENCH_E13.json");
    spm::bench::banner(
        "E13: throughput fast paths (bit-sliced, sharded, gate lanes)",
        "Bit-identical fast paths for the three layers: a bit-sliced "
        "kernel evaluating 64 text positions per word, a sharded "
        "multi-threaded service, and the 64-lane gate plane engine.");
    bitSlicedReport();
    arenaReport();
    shardedReport();
    gateEngineReport();
}

void
scalarTierThroughput(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto w = makeMatchWorkload(n, 8, 2, 0.12);
    SimdParallelMatcher scalar(SimdIsa::Scalar);
    for (auto _ : state) {
        auto r = scalar.match(w.text, w.pattern);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

void
behavioralThroughput(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto w = makeMatchWorkload(n, 8, 2, 0.12);
    BehavioralMatcher chip(8);
    for (auto _ : state) {
        auto r = chip.match(w.text, w.pattern);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

void
shardedThroughput(benchmark::State &state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    const std::size_t n = 65536;
    const auto w = makeMatchWorkload(n, 8, 2, 0.12);
    service::ShardedMatchService svc(shardedConfig(threads, n));
    service::MatchRequest req;
    req.text = w.text;
    req.pattern = w.pattern;
    for (auto _ : state) {
        auto resp = svc.serve(req);
        benchmark::DoNotOptimize(resp);
    }
    state.counters["critical_beats"] =
        static_cast<double>(svc.lastCriticalBeats());
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

void
gateSettle(benchmark::State &state)
{
    const auto w = makeMatchWorkload(32, 4, 2, 0.0);
    GateLevelMatcher m(4, 2);
    for (auto _ : state) {
        auto r = m.match(w.text, w.pattern);
        benchmark::DoNotOptimize(r);
    }
    state.counters["device_evals"] = static_cast<double>(m.lastEvals());
}

BENCHMARK(scalarTierThroughput)->Arg(65536)->Arg(1048576);
BENCHMARK(behavioralThroughput)->Arg(65536);
BENCHMARK(shardedThroughput)->Arg(1)->Arg(4);
BENCHMARK(gateSettle);

} // namespace

SPM_BENCH_MAIN(printReport)
