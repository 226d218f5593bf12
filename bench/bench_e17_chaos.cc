/**
 * @file
 * E17 -- chaos storm: shard-level fault tolerance under injected
 * failures.
 *
 * Section 5 buys chip yield from defective cells with spares and
 * reconfiguration; the sharded service buys availability from
 * defective shards the same way. This experiment drives seeded fault
 * storms (watchdog-budget stalls, dead-worker hangs, thrown
 * exceptions, silent bit corruption) through the chaos harness and
 * regenerates the robustness headline numbers:
 *
 *   integrity     zero silent corruptions: every ok() response is
 *                 bit-identical to the reference answer, every
 *                 injected fault either recovered or failed typed
 *                 (the CI gate requires the "yes" strings to hold);
 *   detection     with the per-chunk reference cross-check disabled,
 *                 boundary corruption is still caught by the overlap
 *                 cross-check and repaired on spares;
 *   availability  ok-served share of requests under the mixed storm,
 *                 plus recovery latency (mean/max serve wall clock);
 *   cost          clean vs under-storm request throughput (the CI
 *                 gate requires storm throughput >= 0.5x baseline).
 *
 * The report writes BENCH_E17.json (override with --json <path>;
 * --smoke shrinks the campaign sizes for CI). The committed baseline
 * is a --smoke run: the storm rate is dominated by the seeded hang
 * sleeps, so only a smoke-to-smoke comparison (what check.sh runs)
 * is apples to apples.
 */

#include "bench/bench_common.hh"

#include <chrono>

#include "service/chaos.hh"
#include "service/sharded.hh"
#include "telemetry/event.hh"
#include "util/logging.hh"

namespace
{

using namespace spm;
using spm::bench::jsonReport;
using spm::bench::smokeMode;

service::ShardedMatchService::LadderFactory
softwareFactory()
{
    return [](const service::ServiceConfig &) {
        std::vector<std::unique_ptr<service::ServiceBackend>> ladder;
        ladder.push_back(std::make_unique<service::SoftwareBackend>());
        return ladder;
    };
}

service::ChaosCampaignConfig
baseCampaign()
{
    service::ChaosCampaignConfig cc;
    cc.sharded.base.alphabetBits = 2;
    cc.sharded.base.maxTextLen = 1 << 20;
    cc.sharded.base.chunkChars = 16;
    cc.sharded.threads = 4;
    cc.sharded.spareShards = 2;
    cc.sharded.minShardChars = 64;
    cc.sharded.batchDeadlineMs = 60;
    cc.innerFactory = softwareFactory();
    cc.requests = smokeMode() ? 6 : 24;
    cc.textLen = smokeMode() ? 400 : 1200;
    cc.patternLen = 5;
    cc.seed = 2026;
    return cc;
}

/** The mixed storm: primaries faulted, spares the clean harvest. */
service::ChaosConfig
mixedStorm()
{
    service::ChaosConfig storm;
    storm.seed = 1979;
    storm.stallProb = 0.08;
    storm.hangProb = 0.02;
    storm.throwProb = 0.08;
    storm.corruptProb = 0.08;
    storm.hangMs = 150; // past the batch deadline: a real dead worker
    storm.targetSlots = {0, 1, 2, 3};
    return storm;
}

const char *
yesNo(bool v)
{
    return v ? "yes" : "NO";
}

void
printReport()
{
    spm::bench::jsonDefaultPath("BENCH_E17.json");
    bench::banner(
        "E17: chaos storm -- shard-level fault tolerance",
        "Seeded fault storms (stall, hang, throw, corrupt) against the"
        " sharded service: every injected fault is either\nrecovered"
        " bit-identical to the un-faulted answer or rejected with a"
        " typed error -- zero silent corruptions, zero hangs.");

    // The storm triggers flight dumps and quarantine warnings by
    // design; raising the log floor keeps the report parseable
    // (panic is never filtered).
    setLogMinLevel(LogLevel::Silent);
    telem::FlightRecorder::global().setDumpSink([](const std::string &) {});

    // Clean baseline: the same campaign with no storm.
    service::ChaosCampaignConfig clean = baseCampaign();
    const auto c0 = std::chrono::steady_clock::now();
    const service::ChaosCampaignReport cleanRep =
        service::runChaosCampaign(clean);
    const auto c1 = std::chrono::steady_clock::now();
    const double cleanSec =
        std::chrono::duration<double>(c1 - c0).count();

    // The mixed storm.
    service::ChaosCampaignConfig storm = baseCampaign();
    storm.chaos = mixedStorm();
    const auto s0 = std::chrono::steady_clock::now();
    const service::ChaosCampaignReport stormRep =
        service::runChaosCampaign(storm);
    const auto s1 = std::chrono::steady_clock::now();
    const double stormSec =
        std::chrono::duration<double>(s1 - s0).count();

    // Overlap-detection campaign: per-chunk reference cross-check
    // OFF, one boundary-bit corruption per targeted slot (index k-1
    // of the slot's first window is the first kept -- and cross-
    // checked -- bit of slices 1..3). Only the overlap comparison
    // stands between these flips and wrong answers.
    service::ChaosCampaignConfig overlap = baseCampaign();
    overlap.sharded.base.crossCheck = false;
    overlap.chaos.seed = 7;
    overlap.chaos.corruptProb = 1.0;
    overlap.chaos.maxInjectionsPerSlot = 1;
    overlap.chaos.corruptAt = 4; // k-1 with patternLen = 5
    overlap.chaos.targetSlots = {1, 2, 3};
    const service::ChaosCampaignReport overlapRep =
        service::runChaosCampaign(overlap);

    std::printf("clean campaign:\n%s\n", cleanRep.renderText().c_str());
    std::printf("mixed storm:\n%s\n", stormRep.renderText().c_str());
    std::printf("overlap detection (cross-check off):\n%s\n",
                overlapRep.renderText().c_str());

    const bool cleanExact = cleanRep.exactRequests == cleanRep.requests;
    const bool stormIntact =
        stormRep.silentCorruptions == 0 &&
        stormRep.okRequests == stormRep.exactRequests &&
        stormRep.okRequests + stormRep.typedFailures == stormRep.requests;
    const bool overlapCaught = overlapRep.silentCorruptions == 0 &&
                               overlapRep.overlapMismatches > 0;

    std::printf("gates: clean_exact=%s storm_intact=%s "
                "overlap_caught=%s\n",
                yesNo(cleanExact), yesNo(stormIntact),
                yesNo(overlapCaught));

    const double n = static_cast<double>(storm.requests);
    jsonReport().set("chaos.requests", n);
    jsonReport().set("chaos.threads", 4.0);
    jsonReport().set("chaos.spares", 2.0);
    jsonReport().set("chaos.clean_exact", yesNo(cleanExact));
    jsonReport().set("chaos.zero_silent_corruptions",
                     yesNo(stormRep.silentCorruptions == 0));
    jsonReport().set("chaos.storm_all_exact_or_typed",
                     yesNo(stormIntact));
    jsonReport().set("chaos.overlap_caught", yesNo(overlapCaught));
    jsonReport().set("chaos.faults_injected",
                     static_cast<double>(stormRep.faultsInjected));
    jsonReport().set("chaos.availability_pct", stormRep.availabilityPct);
    jsonReport().set("chaos.recovered",
                     static_cast<double>(stormRep.recoveredRequests));
    jsonReport().set("chaos.shard_timeouts",
                     static_cast<double>(stormRep.shardTimeouts));
    jsonReport().set("chaos.shard_exceptions",
                     static_cast<double>(stormRep.shardExceptions));
    jsonReport().set("chaos.spare_serves",
                     static_cast<double>(stormRep.spareServes));
    jsonReport().set("chaos.quarantines",
                     static_cast<double>(stormRep.quarantines));
    jsonReport().set("chaos.overlap_mismatches_detected",
                     static_cast<double>(overlapRep.overlapMismatches));
    jsonReport().set("chaos.mean_recovery_ms", stormRep.meanServeMs);
    jsonReport().set("chaos.max_recovery_ms", stormRep.maxServeMs);
    jsonReport().set("chaos.clean_requests_per_sec",
                     cleanSec > 0 ? n / cleanSec : 0.0);
    jsonReport().set("chaos.storm_requests_per_sec",
                     stormSec > 0 ? n / stormSec : 0.0);
}

/** One clean sharded serve: the no-storm cost of the supervisor. */
void
BM_cleanShardedServe(benchmark::State &state)
{
    service::ChaosCampaignConfig cc = baseCampaign();
    service::ShardedMatchService sharded(cc.sharded, softwareFactory());
    const bench::MatchWorkload w =
        bench::makeMatchWorkload(cc.textLen, cc.patternLen, 2, 0.2);
    service::MatchRequest req;
    req.id = 1;
    req.text = w.text;
    req.pattern = w.pattern;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sharded.serve(req));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_cleanShardedServe)->Unit(benchmark::kMillisecond);

/** The same serve under a stall/throw/corrupt storm (no sleeps). */
void
BM_stormShardedServe(benchmark::State &state)
{
    service::ChaosCampaignConfig cc = baseCampaign();
    service::ChaosConfig storm = mixedStorm();
    storm.hangProb = 0.0; // wall-clock sleeps would swamp the timing
    auto plan = std::make_shared<const service::ChaosPlan>(storm);
    service::ShardedMatchService sharded(
        cc.sharded,
        service::makeChaosLadderFactory(plan, softwareFactory()));
    const bench::MatchWorkload w =
        bench::makeMatchWorkload(cc.textLen, cc.patternLen, 2, 0.2);
    service::MatchRequest req;
    req.id = 1;
    req.text = w.text;
    req.pattern = w.pattern;
    for (auto _ : state) {
        benchmark::DoNotOptimize(sharded.serve(req));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_stormShardedServe)->Unit(benchmark::kMillisecond);

} // namespace

SPM_BENCH_MAIN(printReport)
