#include "layers.hh"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/batch.hh"
#include "core/gatechip.hh"
#include "core/reference.hh"
#include "core/simdpar.hh"
#include "multipattern/planes.hh"
#include "telemetry/flightrec.hh"

namespace perfbench
{

using namespace spm;
using service::MatchRequest;

namespace
{

/** Inputs every probe replays, whatever its time budget. */
constexpr std::uint64_t countedInputs = 4;

const char *const movesThroughput = "throughput_mchars_s, latency_p50_ms";

void
require(bool ok, const char *what)
{
    if (!ok)
        throw std::runtime_error(std::string("layer probe failed: ") + what);
}

/** Exemplars kept by the request-level and every shard's reservoir. */
std::uint64_t
retainedExemplars(const service::ShardedMatchService &svc)
{
    std::uint64_t n = svc.exemplars().retained();
    for (std::size_t s = 0; s < svc.threadCount() + svc.spareCount(); ++s)
        n += svc.shard(s).exemplars().retained();
    return n;
}

std::vector<LayerMetric>
probeLongScan(const Sizes &sz, std::uint64_t seed, double seconds,
              Tracer &tr)
{
    const service::ServiceConfig svcCfg = longScanServiceConfig(sz);
    const service::ShardedConfig shardCfg = longScanShardedConfig(sz);
    core::SimdParallelMatcher kernel;
    service::MatcherBackend backend(
        std::make_unique<core::SimdParallelMatcher>());
    service::BeatWatchdog dog;
    // The warm service has served more requests than its reservoirs
    // hold before the probe starts.
    service::MatchService warm(svcCfg, simdLadder(svcCfg));
    for (std::uint64_t i = 0; i < 4 * sz.longJob; ++i)
        require(warm.serve(longScanRequest(sz, seed, (1ULL << 40) + i)).ok(),
                "warm-up serve");
    std::unique_ptr<service::ShardedMatchService> sharded;

    double chars = 0;
    std::uint64_t countedChars = 0, critical = 0, shards = 0, retained = 0;
    const std::uint64_t jobs = std::max<std::uint64_t>(
        1, (countedInputs + sz.longJob - 1) / sz.longJob);
    const std::uint64_t stop = deadline(seconds);
    for (std::uint64_t i = 0; i < jobs * sz.longJob || nowNs() < stop; ++i) {
        const MatchRequest req = longScanRequest(sz, seed, i);
        const std::vector<Text> windows =
            serviceWindows(req.text, sz.longChunk, req.pattern.size());
        Scope root(&tr, "bench.request", -1, req.id);
        const std::int64_t p = root.spanId();
        {
            Scope s(&tr, "core.SimdParallelMatcher.matchPacked", p, req.id);
            kernel.matchPacked(req.text, req.pattern);
        }
        for (const Text &w : windows) {
            const std::vector<std::uint64_t> *packed = nullptr;
            {
                Scope s(&tr, "core.SimdParallelMatcher.matchPacked.window",
                        p, req.id);
                packed = &kernel.matchPacked(w, req.pattern);
            }
            Scope s(&tr, "core.unpackResultBits", p, req.id);
            core::unpackResultBits(*packed, w.size());
        }
        for (const Text &w : windows) {
            dog.arm(std::numeric_limits<Beat>::max() / 2);
            Scope s(&tr, "service.MatcherBackend.matchWindow", p, req.id);
            require(backend.matchWindow(w, req.pattern, dog).completed,
                    "matchWindow");
        }
        {
            auto cold = std::make_unique<service::MatchService>(
                svcCfg, simdLadder(svcCfg));
            Scope s(&tr, "service.MatchService.serve.cold", p, req.id);
            require(cold->serve(req).ok(), "cold serve");
        }
        {
            Scope s(&tr, "service.MatchService.serve.warm", p, req.id);
            require(warm.serve(req).ok(), "warm serve");
        }
        // Cold jobs, as in the end-to-end run.
        if (i % sz.longJob == 0)
            sharded = std::make_unique<service::ShardedMatchService>(
                shardCfg, simdLadder);
        {
            Scope s(&tr, "service.ShardedMatchService.serve", p, req.id);
            require(sharded->serve(req).ok(), "sharded serve");
        }
        if (i < jobs * sz.longJob) {
            critical += sharded->lastCriticalBeats();
            shards += sharded->lastShards();
            countedChars += req.text.size();
            if ((i + 1) % sz.longJob == 0)
                retained += retainedExemplars(*sharded);
        }
        {
            Scope s(&tr, "telemetry.literalCaseId", p, req.id);
            telem::literalCaseId(sz.alphabetBits, req.pattern, req.text);
        }
        chars += static_cast<double>(req.text.size());
    }

    const double kernelWin =
        tr.totalNs("core.SimdParallelMatcher.matchPacked.window");
    const double cold = tr.totalNs("service.MatchService.serve.cold");
    const double counted = static_cast<double>(jobs * sz.longJob);
    const std::string w = "long_scan";
    return {
        {"core.kernel_ns_per_char", "ns/char", w, movesThroughput,
         tr.totalNs("core.SimdParallelMatcher.matchPacked") / chars},
        {"core.kernel_window_ns_per_char", "ns/char", w, movesThroughput,
         kernelWin / chars},
        {"core.unpack_ns_per_char", "ns/char", w, movesThroughput,
         tr.totalNs("core.unpackResultBits") / chars},
        {"service.backend_ns_per_char", "ns/char", w, movesThroughput,
         tr.totalNs("service.MatcherBackend.matchWindow") / chars},
        {"service.stream_cold_ns_per_char", "ns/char", w, movesThroughput,
         cold / chars},
        {"service.stream_warm_ns_per_char", "ns/char", w, movesThroughput,
         tr.totalNs("service.MatchService.serve.warm") / chars},
        {"service.tax", "ratio", w, movesThroughput, cold / kernelWin},
        {"service.shard_tax", "ratio", w, movesThroughput,
         tr.totalNs("service.ShardedMatchService.serve") / cold},
        {"telemetry.case_id_ns_per_char", "ns/char", w, movesThroughput,
         tr.totalNs("telemetry.literalCaseId") / chars},
        {"telemetry.exemplars_retained_per_request", "count/req", w,
         movesThroughput, static_cast<double>(retained) / counted},
        {"service.critical_beats_per_char", "beats/char", w,
         movesThroughput,
         static_cast<double>(critical) / static_cast<double>(countedChars)},
        {"service.shards_per_request", "count/req", w, movesThroughput,
         static_cast<double>(shards) / counted},
    };
}

std::vector<LayerMetric>
probeShortBatch(const Sizes &sz, std::uint64_t seed, double seconds,
                Tracer &tr)
{
    const std::vector<Text> pool = batchPatternPool(sz, seed);
    const service::BatchServiceConfig cfg = shortBatchConfig(sz);
    service::BatchMatchService svc(cfg);
    core::BatchMatcher batcher;
    const telem::Counter &passes = svc.stats().counter("kernelPasses");

    double chars = 0, requests = 0;
    std::uint64_t countedPasses = 0;
    const std::uint64_t stop = deadline(seconds);
    for (std::uint64_t c = 0; c < countedInputs || nowNs() < stop; ++c) {
        const std::vector<MatchRequest> batch =
            shortBatchCall(sz, seed, c, pool);
        std::vector<std::vector<const Text *>> groups(pool.size());
        for (const MatchRequest &req : batch) {
            const std::size_t g = static_cast<std::size_t>(
                std::find(pool.begin(), pool.end(), req.pattern) -
                pool.begin());
            groups[g].push_back(&req.text);
            chars += static_cast<double>(req.text.size());
        }
        requests += static_cast<double>(batch.size());

        Scope root(&tr, "bench.request", -1, c);
        const std::int64_t p = root.spanId();
        {
            Scope s(&tr, "service.validateRequest", p, c);
            for (const MatchRequest &req : batch)
                require(!service::validateRequest(cfg.base, req),
                        "validateRequest");
        }
        for (std::size_t g = 0; g < groups.size(); ++g) {
            if (groups[g].empty())
                continue;
            Scope s(&tr, "core.BatchMatcher.matchMany", p, c);
            batcher.matchMany(groups[g], pool[g]);
        }
        const std::uint64_t before = passes.value();
        {
            Scope s(&tr, "service.BatchMatchService.serveBatch", p, c);
            svc.serveBatch(batch);
        }
        if (c < countedInputs)
            countedPasses += passes.value() - before;
    }

    const double kernel = tr.totalNs("core.BatchMatcher.matchMany");
    const std::string w = "short_batch";
    return {
        {"service.validate_ns_per_request", "ns/req", w, movesThroughput,
         tr.totalNs("service.validateRequest") / requests},
        {"core.batch_kernel_ns_per_char", "ns/char", w, movesThroughput,
         kernel / chars},
        {"service.batch_tax", "ratio", w, movesThroughput,
         tr.totalNs("service.BatchMatchService.serveBatch") / kernel},
        {"service.kernel_passes_per_call", "count/call", w, movesThroughput,
         static_cast<double>(countedPasses) /
             static_cast<double>(countedInputs)},
    };
}

std::vector<LayerMetric>
probeDictStream(const Sizes &sz, std::uint64_t seed, double seconds,
                Tracer &tr)
{
    const multipattern::DictPatterns dict = dictionary(sz, seed);
    service::DictMatchService svc(dictStreamConfig(sz));
    service::DictError err;
    service::DictSession session = svc.openSession(dict, err);
    require(err.ok(), "openSession");
    multipattern::BitSlicedDictMatcher feedEngine, wholeEngine;
    multipattern::DictStreamState state;

    double chars = 0;
    std::uint64_t planes = 0, sweeps = 0, wordOps = 0, countedChars = 0;
    const std::uint64_t stop = deadline(seconds);
    for (std::uint64_t c = 0; c < countedInputs || nowNs() < stop; ++c) {
        const Text chunk = dictChunk(sz, seed, c, dict);
        Scope root(&tr, "bench.request", -1, c);
        const std::int64_t p = root.spanId();
        {
            Scope s(&tr, "multipattern.feedDictChunk", p, c);
            multipattern::feedDictChunk(feedEngine, state, chunk, dict);
        }
        if (c < countedInputs) {
            planes += feedEngine.lastPlanes();
            sweeps += feedEngine.lastSweeps();
            wordOps += feedEngine.lastWordOps();
            countedChars += chunk.size();
        }
        {
            Scope s(&tr, "multipattern.BitSlicedDictMatcher.matchAll", p, c);
            wholeEngine.matchAll(chunk, dict);
        }
        {
            Scope s(&tr, "service.DictMatchService.feedChunk", p, c);
            require(svc.feedChunk(session, chunk).ok(), "feedChunk");
        }
        chars += static_cast<double>(chunk.size());
    }

    const double feed = tr.totalNs("multipattern.feedDictChunk");
    const std::string w = "dict_stream";
    return {
        {"multipattern.feed_ns_per_char", "ns/char", w, movesThroughput,
         feed / chars},
        {"multipattern.matchall_ns_per_char", "ns/char", w, movesThroughput,
         tr.totalNs("multipattern.BitSlicedDictMatcher.matchAll") / chars},
        {"service.dict_tax", "ratio", w, movesThroughput,
         tr.totalNs("service.DictMatchService.feedChunk") / feed},
        {"multipattern.planes_per_sweep", "planes", w, movesThroughput,
         static_cast<double>(planes) / static_cast<double>(sweeps)},
        {"multipattern.word_ops_per_char", "ops/char", w, movesThroughput,
         static_cast<double>(wordOps) / static_cast<double>(countedChars)},
    };
}

std::vector<LayerMetric>
probePaperChip(const Sizes &sz, std::uint64_t seed, double seconds,
               Tracer &tr)
{
    const service::ServiceConfig cfg = paperChipConfig(sz);
    service::ServiceConfig unjournaled = cfg;
    unjournaled.journalEnabled = false;
    service::MatchService journaled(cfg);
    service::MatchService plain(unjournaled);
    core::GateLevelMatcher gate(cfg.cells, cfg.alphabetBits);
    core::ReferenceMatcher reference;

    double chars = 0;
    std::uint64_t evals = 0, beats = 0, countedChars = 0;
    const std::uint64_t stop = deadline(seconds);
    for (std::uint64_t i = 0; i < countedInputs || nowNs() < stop; ++i) {
        const MatchRequest req = chipRequest(sz, seed, i);
        const std::vector<Text> windows =
            serviceWindows(req.text, cfg.chunkChars, req.pattern.size());
        Scope root(&tr, "bench.request", -1, req.id);
        const std::int64_t p = root.spanId();
        for (const Text &w : windows) {
            {
                Scope s(&tr, "gate.GateLevelMatcher.match", p, req.id);
                gate.match(w, req.pattern);
            }
            if (i < countedInputs) {
                evals += gate.lastEvals();
                beats += gate.lastBeats();
            }
        }
        if (i < countedInputs)
            countedChars += req.text.size();
        for (const Text &w : windows) {
            Scope s(&tr, "core.ReferenceMatcher.match", p, req.id);
            reference.match(w, req.pattern);
        }
        {
            Scope s(&tr, "service.MatchService.serve.journal_on", p, req.id);
            require(journaled.serve(req).ok(), "journaled serve");
        }
        {
            Scope s(&tr, "service.MatchService.serve.journal_off", p, req.id);
            require(plain.serve(req).ok(), "unjournaled serve");
        }
        if ((i + 1) % sz.chipJournalDrain == 0)
            journaled.journal().clear();
        chars += static_cast<double>(req.text.size());
    }

    const double gateNs = tr.totalNs("gate.GateLevelMatcher.match");
    const double on = tr.totalNs("service.MatchService.serve.journal_on");
    const double counted = static_cast<double>(countedChars);
    const std::string w = "paper_chip";
    return {
        {"gate.chip_ns_per_char", "ns/char", w, "throughput_mchars_s",
         gateNs / chars},
        {"core.reference_ns_per_char", "ns/char", w, "throughput_mchars_s",
         tr.totalNs("core.ReferenceMatcher.match") / chars},
        {"service.journal_ns_per_char", "ns/char", w, "throughput_mchars_s",
         (on - tr.totalNs("service.MatchService.serve.journal_off")) / chars},
        {"service.ladder_tax", "ratio", w, "throughput_mchars_s",
         on / gateNs},
        {"gate.device_evals_per_char", "evals/char", w, "throughput_mchars_s",
         static_cast<double>(evals) / counted},
        {"gate.beats_per_char", "beats/char", w, "sim_beats_per_char",
         static_cast<double>(beats) / counted},
    };
}

} // namespace

std::vector<LayerMetric>
probeLayers(const std::string &workload, const Sizes &sz, std::uint64_t seed,
            double seconds, Tracer &tracer)
{
    if (workload == "long_scan")
        return probeLongScan(sz, seed, seconds, tracer);
    if (workload == "short_batch")
        return probeShortBatch(sz, seed, seconds, tracer);
    if (workload == "dict_stream")
        return probeDictStream(sz, seed, seconds, tracer);
    if (workload == "paper_chip")
        return probePaperChip(sz, seed, seconds, tracer);
    throw std::invalid_argument("unknown workload '" + workload + "'");
}

} // namespace perfbench
