/**
 * @file
 * E18 -- SIMD widening and multi-stream batching: what the three new
 * throughput layers buy over the E13 fast paths, and where the
 * remaining sharded wall-clock went.
 *
 * Four measurements:
 *
 *   simd kernel    the bit-sliced kernel (simdpar) at its best tier
 *                  vs its portable scalar tier on a single hot
 *                  stream, plus a forced-tier A/B (scalar / sse2 /
 *                  avx2) of the same code, so the register-width win
 *                  is measured on one algorithm;
 *   batch width    one BatchMatcher pass over W short streams vs W
 *                  single-stream passes -- the north-star serving
 *                  shape, where plane words are filled by batch
 *                  width, not stream length;
 *   batch service  the batched request path vs the streaming service
 *                  on the same bundle of short requests (serving
 *                  overhead per request vs per pass);
 *   sharded wall   the sharded service re-measured after the serving
 *                  fixes (journal guard, chunked bus charging, window
 *                  reuse, opt-in thread pinning), with the ladder
 *                  pinned to the scalar and best tiers of the kernel --
 *                  and the default gate-level ladder alongside, which
 *                  shows why E13's wall-clock number was never a
 *                  serving-layer problem: the gate rung simulates
 *                  every transistor and meets its beat budget; it is
 *                  simply 5 orders of magnitude more work per char.
 *
 * The report writes every headline number to BENCH_E18.json
 * (override with --json <path>; --smoke shrinks the sweep for CI).
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>

#include "core/batch.hh"
#include "core/reference.hh"
#include "core/simdpar.hh"
#include "service/batch.hh"
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

std::vector<SimdIsa>
supportedTiers()
{
    std::vector<SimdIsa> tiers{SimdIsa::Scalar};
    if (simdIsaSupported(SimdIsa::Sse2))
        tiers.push_back(SimdIsa::Sse2);
    if (simdIsaSupported(SimdIsa::Avx2))
        tiers.push_back(SimdIsa::Avx2);
    return tiers;
}

void
simdKernelReport()
{
    const std::size_t big = smokeMode() ? 16384 : 1048576;
    const std::vector<std::size_t> sizes =
        smokeMode() ? std::vector<std::size_t>{4096, big}
                    : std::vector<std::size_t>{65536, 262144, big};
    const std::size_t k = 8;

    Table table("SIMD kernel vs its scalar tier "
                "(2-bit alphabet, k = 8, 12% wild cards)");
    table.setHeader({"text chars", "scalar Mchars/s", "simd Mchars/s",
                     "speedup vs scalar", "agrees"});
    double big_speedup = 0;
    for (const std::size_t n : sizes) {
        const auto w = makeMatchWorkload(n, k, 2, 0.12);
        SimdParallelMatcher scalar(SimdIsa::Scalar);
        SimdParallelMatcher sp;
        ReferenceMatcher ref;

        const double cs_scalar = charsPerSec(scalar, w);
        const double cs_s = charsPerSec(sp, w);
        const bool agrees = sp.match(w.text, w.pattern) ==
                            ref.match(w.text, w.pattern);
        const double speedup = cs_s / cs_scalar;
        if (n == big)
            big_speedup = speedup;
        table.addRowOf(n, Table::fixed(cs_scalar / 1e6, 2),
                       Table::fixed(cs_s / 1e6, 2),
                       Table::fixed(speedup, 1), agrees ? "yes" : "NO");
        const std::string p = "simd.n" + std::to_string(n) + ".";
        jsonReport().set(p + "scalar_chars_per_sec", cs_scalar);
        jsonReport().set(p + "simd_chars_per_sec", cs_s);
        jsonReport().set(p + "speedup_vs_scalar", speedup);
        jsonReport().set(p + "agrees", agrees ? "yes" : "no");
    }
    table.print();
    jsonReport().set("simd.big_text_chars", static_cast<double>(big));
    jsonReport().set("simd.big_speedup_vs_scalar", big_speedup);
    std::printf("\nShape check: the SIMD kernel is %.1fx its "
                "scalar tier on\nthe %zu-char text "
                "(acceptance floor: 2x on 1 MB in a Release build).\n",
                big_speedup, big);
}

void
simdIsaReport()
{
    // Forced-tier A/B of one binary: every tier carries the fused
    // short-pattern recurrence and the byte transpose, so
    // sse2/avx2-vs-scalar is the pure register-width win.
    const std::size_t n = smokeMode() ? 16384 : 1048576;
    const auto w = makeMatchWorkload(n, 8, 2, 0.12);

    Table table("Forced-tier A/B (text n = " + std::to_string(n) +
                ", k = 8)");
    table.setHeader({"tier", "Mchars/s", "planes", "short path"});
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher m(isa);
        const double cs = charsPerSec(m, w);
        table.addRowOf(simdIsaName(isa), Table::fixed(cs / 1e6, 2),
                       m.lastPlanes(), m.lastShortPath() ? "yes" : "no");
        jsonReport().set("simd.n" + std::to_string(n) + ".isa_" +
                             simdIsaName(isa) + "_chars_per_sec",
                         cs);
    }
    table.print();
    jsonReport().set("simd.best_isa", simdIsaName(bestSimdIsa()));
}

void
batchWidthReport()
{
    // W short streams through one kernel pass. At 12 characters a
    // lone stream fills 12/64 of its plane word -- 81% padding -- and
    // pays the per-pass costs (transpose setup, pattern masks, result
    // extraction) on 12 characters; at W = 1000 the words are full
    // and the same costs spread over 12,000.
    const std::size_t len = 12;
    const std::size_t k = 8;
    const std::size_t target =
        smokeMode() ? 100'000 : 2'000'000; // chars per timed rep

    WorkloadGen gen(0xE18BA7C4, 2);
    const auto pattern = gen.randomPattern(k, 0.12);

    Table table("Batch width scaling (streams of " +
                std::to_string(len) + " chars, k = 8)");
    table.setHeader({"streams/pass", "Mchars/s", "kernel chars/pass",
                     "speedup vs w=1"});
    BatchMatcher bm;
    ReferenceMatcher ref;
    double cs_w1 = 0;
    bool agrees = true;
    for (const std::size_t width :
         {std::size_t(1), std::size_t(3), std::size_t(64),
          std::size_t(1000)}) {
        std::vector<std::vector<Symbol>> streams(width);
        for (std::size_t i = 0; i < width; ++i) {
            WorkloadGen sg(0xE18000 + i, 2);
            streams[i] = sg.textWithPlants(len, pattern, k * 3 + 1);
        }
        const std::size_t passes =
            std::max<std::size_t>(1, target / (width * len));
        double best = 1e300;
        for (int rep = 0; rep < 3; ++rep)
            best = std::min(best, secondsOf([&] {
                for (std::size_t p = 0; p < passes; ++p) {
                    auto r = bm.matchMany(streams, pattern);
                    benchmark::DoNotOptimize(r);
                }
            }));
        const double cs =
            static_cast<double>(width * len * passes) / best;
        if (width == 1)
            cs_w1 = cs;
        if (width == 64) {
            // Spot-check the pack against per-stream reference runs.
            const auto got = bm.matchMany(streams, pattern);
            for (std::size_t i = 0; i < width && agrees; ++i)
                agrees = got[i] == ref.match(streams[i], pattern);
        }
        table.addRowOf(width, Table::fixed(cs / 1e6, 2),
                       bm.lastKernelChars(),
                       Table::fixed(cs / cs_w1, 1));
        const std::string p = "batch.w" + std::to_string(width) + ".";
        jsonReport().set(p + "chars_per_sec", cs);
        jsonReport().set(p + "kernel_chars_per_pass",
                         static_cast<double>(bm.lastKernelChars()));
        if (width == 1000)
            jsonReport().set("batch.w1000_speedup_vs_w1", cs / cs_w1);
    }
    table.print();
    jsonReport().set("batch.agrees", agrees ? "yes" : "no");
    std::printf("\nShape check: 1000-stream passes are the shape the "
                "kernel was built\nfor; width must buy throughput "
                "(floor: 2x over one-stream passes)\nand the packing "
                "must stay bit-identical to per-stream matching.\n");
}

void
batchServiceReport()
{
    // The same bundle of short requests through both front ends: the
    // streaming service pays validation, chunk loop, checkpointing and
    // bus charging per request; the batched path pays them per pass.
    const std::size_t len = 64;
    const std::size_t k = 8;
    const std::size_t requests = smokeMode() ? 64 : 1024;

    service::ServiceConfig scfg;
    scfg.alphabetBits = 2;
    scfg.maxTextLen = len * 4;
    scfg.crossCheck = false;
    scfg.journalEnabled = false;
    service::BatchServiceConfig bcfg;
    bcfg.base = scfg;

    WorkloadGen gen(0xE18F00D, 2);
    const auto pattern = gen.randomPattern(k, 0.12);
    std::vector<service::MatchRequest> batch(requests);
    for (std::size_t i = 0; i < requests; ++i) {
        WorkloadGen sg(0xE18100 + i, 2);
        batch[i].id = i;
        batch[i].text = sg.textWithPlants(len, pattern, k * 3 + 1);
        batch[i].pattern = pattern;
    }

    // The streaming side gets the same SIMD kernel as its only rung,
    // so the difference below is serving overhead, not ladder
    // fidelity (the default ladder's gate rung would drown it).
    std::vector<std::unique_ptr<service::ServiceBackend>> rung;
    rung.push_back(std::make_unique<service::MatcherBackend>(
        std::make_unique<SimdParallelMatcher>()));
    service::BatchMatchService batched(bcfg);
    service::MatchService streaming(scfg, std::move(rung));
    const double total = static_cast<double>(requests * len);

    double s_batched = 1e300;
    double s_streaming = 1e300;
    bool all_ok = true;
    for (int rep = 0; rep < 3; ++rep) {
        s_batched = std::min(s_batched, secondsOf([&] {
            auto resp = batched.serveBatch(batch);
            for (const auto &r : resp)
                all_ok = all_ok && r.ok();
            benchmark::DoNotOptimize(resp);
        }));
        s_streaming = std::min(s_streaming, secondsOf([&] {
            for (const auto &req : batch) {
                auto r = streaming.serve(req);
                all_ok = all_ok && r.ok();
                benchmark::DoNotOptimize(r);
            }
        }));
    }
    const double cs_b = total / s_batched;
    const double cs_s = total / s_streaming;

    Table table("Serving " + std::to_string(requests) + " short "
                "requests (" + std::to_string(len) + " chars each)");
    table.setHeader({"front end", "Mchars/s", "requests/s"});
    table.addRowOf("streaming (one by one)", Table::fixed(cs_s / 1e6, 2),
                   Table::fixed(cs_s / static_cast<double>(len), 0));
    table.addRowOf("batched (one pass)", Table::fixed(cs_b / 1e6, 2),
                   Table::fixed(cs_b / static_cast<double>(len), 0));
    table.print();

    jsonReport().set("batch_service.streaming_chars_per_sec", cs_s);
    jsonReport().set("batch_service.batched_chars_per_sec", cs_b);
    jsonReport().set("batch_service.batched_speedup", cs_b / cs_s);
    jsonReport().set("batch_service.all_ok", all_ok ? "yes" : "no");
    std::printf("\nShape check: batching the serving layer is worth "
                "%.0fx on short\nrequests -- per-request overhead, not "
                "kernel speed, bounds the\nstreaming path here.\n",
                cs_b / cs_s);
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
    cfg.pinThreads = true; // dedicated-host benchmark: opt in
    return cfg;
}

/** A ladder with a single rung: the given kernel behind the service. */
service::ShardedMatchService::LadderFactory
pinnedLadder(const std::function<std::unique_ptr<Matcher>()> &make)
{
    return [make](const service::ServiceConfig &) {
        std::vector<std::unique_ptr<service::ServiceBackend>> rungs;
        rungs.push_back(
            std::make_unique<service::MatcherBackend>(make()));
        return rungs;
    };
}

void
shardedWallClockReport()
{
    const std::size_t n = smokeMode() ? 8192 : 262144;
    const std::size_t k = 8;
    const auto w = makeMatchWorkload(n, k, 2, 0.12);
    service::MatchRequest req;
    req.id = 18;
    req.text = w.text;
    req.pattern = w.pattern;

    struct Ladder
    {
        const char *label; ///< table + JSON name
        service::ShardedMatchService::LadderFactory factory;
    };
    const std::vector<Ladder> ladders = {
        {"scalar", pinnedLadder([] {
             return std::make_unique<SimdParallelMatcher>(SimdIsa::Scalar);
         })},
        {"simd", pinnedLadder(
                     [] { return std::make_unique<SimdParallelMatcher>(); })},
    };

    Table table("Sharded wall clock after the serving fixes "
                "(text n = " + std::to_string(n) + ", chunk 512, "
                "pinned threads)");
    table.setHeader({"ladder", "threads", "wall Mchars/s",
                     "critical beats", "queue-wait beats (mean)"});
    ReferenceMatcher ref;
    const auto want = ref.match(w.text, w.pattern);
    bool agrees = true;
    for (const Ladder &ladder : ladders) {
        for (const unsigned threads : {1u, 2u, 4u}) {
            service::ShardedMatchService svc(shardedConfig(threads, n),
                                             ladder.factory);
            service::MatchResponse resp;
            double best = 1e300;
            for (int rep = 0; rep < 3; ++rep)
                best = std::min(
                    best, secondsOf([&] { resp = svc.serve(req); }));
            if (!resp.ok()) {
                std::printf("sharded serve failed: %s\n",
                            resp.error.detail.c_str());
                return;
            }
            agrees = agrees && resp.result == want;
            const double cs = static_cast<double>(n) / best;
            const auto snap = svc.metricsSnapshot();
            const auto *qw = snap.logHistogram("sharded.queue_wait_beats");
            const double qw_mean = qw && qw->samples() ? qw->mean() : 0;
            table.addRowOf(ladder.label, threads,
                           Table::fixed(cs / 1e6, 2),
                           svc.lastCriticalBeats(),
                           Table::fixed(qw_mean, 1));
            const std::string p = "sharded_" +
                                  std::string(ladder.label) + ".n" +
                                  std::to_string(n) + ".threads" +
                                  std::to_string(threads) + ".";
            jsonReport().set(p + "wall_chars_per_sec", cs);
            jsonReport().set(p + "critical_beats",
                             static_cast<double>(svc.lastCriticalBeats()));
            jsonReport().set(p + "queue_wait_mean_beats", qw_mean);
        }
    }

    // The E13 configuration unchanged: default ladder, so every chunk
    // is served by the gate-level netlist rung (it meets its beat
    // budget; no degradation). This is the diagnosis number -- the old
    // wall-clock "gap" was fidelity-priced compute, not serving
    // overhead.
    service::ShardedMatchService gate(shardedConfig(4, n));
    service::MatchResponse gresp;
    double gbest = 1e300;
    for (int rep = 0; rep < (smokeMode() ? 1 : 3); ++rep)
        gbest = std::min(gbest,
                         secondsOf([&] { gresp = gate.serve(req); }));
    const double cs_gate = static_cast<double>(n) / gbest;
    if (gresp.ok()) {
        agrees = agrees && gresp.result == want;
        table.addRowOf("gate (default)", 4u, Table::fixed(cs_gate / 1e6, 2),
                       gate.lastCriticalBeats(), "-");
    }
    table.print();
    jsonReport().set("sharded_gate.n" + std::to_string(n) +
                         ".threads4.wall_chars_per_sec",
                     cs_gate);
    jsonReport().set("sharded.agrees", agrees ? "yes" : "no");
    std::printf(
        "\nShape check: with the ladder pinned to a software kernel, "
        "the sharded\nfront end must beat the E13 wall-clock baseline "
        "(309,640 chars/s at 4\nthreads, BENCH_E13.json) by at least "
        "2x -- that gap was serving\noverhead (journal strings built "
        "while disabled, per-char bus charging,\nper-chunk window "
        "allocation) and is now fixed. The gate-ladder row\nreproduces "
        "the E13 configuration: its wall clock is the gate "
        "simulator's\nfidelity price, which no serving-layer fix "
        "should (or does) change.\nThis host has %u core(s); "
        "wall-clock thread scaling needs idle cores,\nwhile the "
        "critical-beats figure stays host-independent.\n",
        std::thread::hardware_concurrency());
}

void
printReport()
{
    spm::bench::jsonDefaultPath("BENCH_E18.json");
    spm::bench::banner(
        "E18: SIMD widening, multi-stream batching, sharded wall clock",
        "The bit-sliced kernel widened to 128/256-bit registers with a "
        "fused short-pattern recurrence, a batch front end that fills "
        "plane words with independent streams, and the sharded service "
        "re-measured after the serving-overhead fixes.");
    simdKernelReport();
    simdIsaReport();
    batchWidthReport();
    batchServiceReport();
    shardedWallClockReport();
}

void
simdThroughput(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    const auto w = makeMatchWorkload(n, 8, 2, 0.12);
    SimdParallelMatcher sp;
    for (auto _ : state) {
        auto r = sp.match(w.text, w.pattern);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

void
batchThroughput(benchmark::State &state)
{
    const auto width = static_cast<std::size_t>(state.range(0));
    const std::size_t len = 12;
    WorkloadGen gen(0xE18BA7C4, 2);
    const auto pattern = gen.randomPattern(8, 0.12);
    std::vector<std::vector<Symbol>> streams(width);
    for (std::size_t i = 0; i < width; ++i) {
        WorkloadGen sg(0xE18000 + i, 2);
        streams[i] = sg.textWithPlants(len, pattern, 25);
    }
    BatchMatcher bm;
    for (auto _ : state) {
        auto r = bm.matchMany(streams, pattern);
        benchmark::DoNotOptimize(r);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(width * len));
}

void
shardedKernelThroughput(benchmark::State &state)
{
    const auto threads = static_cast<unsigned>(state.range(0));
    const std::size_t n = 65536;
    const auto w = makeMatchWorkload(n, 8, 2, 0.12);
    service::ShardedMatchService svc(
        shardedConfig(threads, n),
        pinnedLadder([] { return std::make_unique<SimdParallelMatcher>(); }));
    service::MatchRequest req;
    req.text = w.text;
    req.pattern = w.pattern;
    for (auto _ : state) {
        auto resp = svc.serve(req);
        benchmark::DoNotOptimize(resp);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}

BENCHMARK(simdThroughput)->Arg(65536)->Arg(1048576);
BENCHMARK(batchThroughput)->Arg(1)->Arg(64)->Arg(1000);
BENCHMARK(shardedKernelThroughput)->Arg(1)->Arg(4);

} // namespace

SPM_BENCH_MAIN(printReport)
