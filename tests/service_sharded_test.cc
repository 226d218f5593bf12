/**
 * @file
 * Property tests for the sharded multi-threaded service: stitched
 * results must be bit-identical to the unsharded MatchService (and
 * the reference definition), across chunk and shard boundaries, with
 * the resilience semantics intact per shard. These tests are run
 * under ThreadSanitizer by scripts/check.sh.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "core/reference.hh"
#include "core/simdpar.hh"
#include "service/service.hh"
#include "service/sharded.hh"
#include "telemetry/span.hh"
#include "tests/helpers.hh"

namespace spm::service
{
namespace
{

ShardedConfig
smallShardConfig(unsigned threads, BitWidth bits)
{
    ShardedConfig cfg;
    cfg.base.alphabetBits = bits;
    cfg.base.maxTextLen = 1 << 20;
    cfg.base.chunkChars = 16;
    cfg.threads = threads;
    cfg.minShardChars = 24; // force several shards on small texts
    return cfg;
}

MatchRequest
randomRequest(std::uint64_t seed, BitWidth bits, std::size_t text_len,
              std::size_t pat_len, unsigned wildcard_pct = 20)
{
    const test::Workload w = test::makeShapedWorkload(
        seed, bits, text_len, pat_len, wildcard_pct);
    MatchRequest req;
    req.id = seed;
    req.text = w.text;
    req.pattern = w.pattern;
    return req;
}

TEST(ShardedService, BitIdenticalToUnshardedService)
{
    for (const unsigned threads : {1u, 2u, 4u}) {
        const BitWidth bits = 2;
        ShardedMatchService sharded(smallShardConfig(threads, bits));
        ServiceConfig plain_cfg = smallShardConfig(threads, bits).base;
        MatchService plain(plain_cfg);

        for (std::uint64_t i = 0; i < 6; ++i) {
            const auto req = randomRequest(0x5AD + 16 * threads + i, bits,
                                           40 + 37 * i, 3 + i % 6);
            const MatchResponse a = sharded.serve(req);
            const MatchResponse b = plain.serve(req);
            ASSERT_TRUE(a.ok()) << a.error.detail;
            ASSERT_TRUE(b.ok()) << b.error.detail;
            EXPECT_EQ(a.result, b.result)
                << "threads=" << threads << " workload " << i << " over "
                << sharded.lastShards() << " shards";
            EXPECT_EQ(a.result.size(), req.text.size());
        }
    }
}

TEST(ShardedService, StitchesMatchesStraddlingShardBoundaries)
{
    // Place a match across every shard boundary: the window overlap
    // (k-1 characters) is exactly what makes these come out right.
    const BitWidth bits = 2;
    ShardedMatchService sharded(smallShardConfig(4, bits));
    core::ReferenceMatcher ref;

    const std::size_t n = 4 * 24; // 4 shards of minShardChars each
    const std::vector<Symbol> pattern = {1, 2, 3, 1, 2};
    const std::size_t k = pattern.size();
    std::vector<Symbol> text(n, 0);
    ASSERT_EQ(sharded.shardCountFor(n, k), 4u);
    for (std::size_t boundary = 24; boundary < n; boundary += 24) {
        // Match ending just after, on, and just before the boundary.
        for (const std::size_t end :
             {boundary - 2, boundary - 1, boundary, boundary + 1}) {
            std::vector<Symbol> t = text;
            for (std::size_t j = 0; j < k; ++j)
                t[end - (k - 1) + j] = pattern[j];
            MatchRequest req;
            req.id = boundary * 10 + end % 10;
            req.text = t;
            req.pattern = pattern;
            const MatchResponse resp = sharded.serve(req);
            ASSERT_TRUE(resp.ok()) << resp.error.detail;
            BitVec expect(n);
            expect.set(end, true);
            EXPECT_EQ(resp.result, ref.match(t, pattern))
                << "boundary " << boundary << " end " << end;
            EXPECT_EQ(resp.result, expect);
        }
    }
}

TEST(ShardedService, MatchesReferenceOnRandomWorkloadsWithWildcards)
{
    for (std::uint64_t i = 0; i < 8; ++i) {
        const BitWidth bits = 1 + i % 3;
        ShardedMatchService sharded(smallShardConfig(4, bits));
        core::ReferenceMatcher ref;
        const auto req = randomRequest(0xB0A + i, bits, 150 + 31 * i,
                                       1 + i % 8, 0.3);
        const MatchResponse resp = sharded.serve(req);
        ASSERT_TRUE(resp.ok()) << resp.error.detail;
        EXPECT_GE(sharded.lastShards(), 2u);
        EXPECT_EQ(resp.result, ref.match(req.text, req.pattern))
            << "workload " << i;
    }
}

TEST(ShardedService, ShortRequestsStayOnOneShard)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    EXPECT_EQ(sharded.shardCountFor(10, 3), 1u);
    EXPECT_EQ(sharded.shardCountFor(47, 3), 1u);
    EXPECT_EQ(sharded.shardCountFor(48, 3), 2u);
    EXPECT_EQ(sharded.shardCountFor(1 << 16, 3), 4u);
    // A pattern longer than minShardChars raises the floor.
    EXPECT_EQ(sharded.shardCountFor(64, 40), 1u);

    const auto req = randomRequest(0x51, 2, 30, 4);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(sharded.lastShards(), 1u);
    EXPECT_EQ(sharded.lastCriticalBeats(), sharded.lastTotalBeats());
}

TEST(ShardedService, CriticalPathBeatsScaleWithShards)
{
    // The figure of merit: with S equal shards the host waits for the
    // slowest shard, so critical-path beats drop by nearly S relative
    // to the summed effort.
    const BitWidth bits = 2;
    const auto req = randomRequest(0xCAFE, bits, 4096, 8, 0);

    ShardedConfig cfg1 = smallShardConfig(1, bits);
    cfg1.minShardChars = 256;
    ShardedConfig cfg4 = smallShardConfig(4, bits);
    cfg4.minShardChars = 256;
    ShardedMatchService one(cfg1);
    ShardedMatchService four(cfg4);

    const MatchResponse r1 = one.serve(req);
    const MatchResponse r4 = four.serve(req);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r4.ok());
    EXPECT_EQ(r1.result, r4.result);
    EXPECT_EQ(one.lastShards(), 1u);
    EXPECT_EQ(four.lastShards(), 4u);

    const double speedup = static_cast<double>(one.lastCriticalBeats()) /
                           static_cast<double>(four.lastCriticalBeats());
    EXPECT_GE(speedup, 3.0) << "1-shard " << one.lastCriticalBeats()
                            << " beats vs 4-shard critical path "
                            << four.lastCriticalBeats();
    // The overlap recompute keeps total effort within a few percent.
    EXPECT_LT(four.lastTotalBeats(),
              static_cast<Beat>(1.1 * one.lastTotalBeats()));
}

TEST(ShardedService, ValidationAndErrorsMatchUnsharded)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    MatchService plain(smallShardConfig(4, 2).base);

    MatchRequest empty_pat;
    empty_pat.text = {0, 1, 2};
    EXPECT_EQ(sharded.validate(empty_pat)->code,
              plain.validate(empty_pat)->code);
    MatchResponse resp = sharded.serve(empty_pat);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::InvalidPattern);
    EXPECT_TRUE(resp.result.empty());

    // Alphabet overflow where shard 3 would start is caught before
    // slicing, and named at its offset in the request, as unsharded.
    MatchRequest bad;
    bad.pattern = {1, 2};
    bad.text.assign(200, 1);
    bad.text[180] = 9; // outside a 2-bit alphabet
    resp = sharded.serve(bad);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::AlphabetOverflow);
    EXPECT_EQ(resp.error.detail, "text[180]=9 outside alphabet of 4");
    EXPECT_EQ(resp.error.detail, plain.serve(bad).error.detail);
}

TEST(ShardedService, PerShardJournalsAndCheckpointsAreKept)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    const auto req = randomRequest(0x10C, 2, 200, 5);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok());
    ASSERT_EQ(sharded.lastShards(), 4u);

    // Every shard streamed its slice in chunks, cutting a checkpoint
    // at each; the response aggregates the chunks and the per-shard
    // services keep their own journals (resilience semantics are per
    // shard).
    EXPECT_GE(resp.chunks, 4u);
    for (std::size_t s = 0; s < 4; ++s) {
        EXPECT_EQ(sharded.shard(s).stats().counter("served").value(), 1u)
            << "shard " << s;
        EXPECT_GE(
            sharded.shard(s).stats().counter("checkpoints").value(), 1u)
            << "shard " << s;
        EXPECT_TRUE(sharded.shard(s).journal().size() > 0) << "shard " << s;
    }
    const std::string dump = sharded.statsDump();
    EXPECT_NE(dump.find("sharded.threads = 4"), std::string::npos);
    EXPECT_NE(dump.find("sharded.last_shards = 4"), std::string::npos);
}

TEST(ShardedService, CustomLadderFactoryPinsBackend)
{
    ShardedConfig cfg = smallShardConfig(2, 2);
    ShardedMatchService sharded(cfg, [](const ServiceConfig &) {
        std::vector<std::unique_ptr<ServiceBackend>> ladder;
        ladder.push_back(std::make_unique<SoftwareBackend>());
        return ladder;
    });
    const auto req = randomRequest(0xFAC, 2, 120, 4);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.backend, "software-baseline");
    core::ReferenceMatcher ref;
    EXPECT_EQ(resp.result, ref.match(req.text, req.pattern));
}

TEST(ShardedService, ResponseNamesEachRungOnce)
{
    // Slot 1 serves on the software rung, every other slot on the
    // simd kernel: the stitched response lists each distinct rung
    // once, in slice order.
    ShardedMatchService sharded(
        smallShardConfig(4, 2), [](const ServiceConfig &shard_cfg) {
            std::vector<std::unique_ptr<ServiceBackend>> ladder;
            if (shard_cfg.shardId == 1)
                ladder.push_back(std::make_unique<SoftwareBackend>());
            else
                ladder.push_back(std::make_unique<MatcherBackend>(
                    std::make_unique<core::SimdParallelMatcher>()));
            return ladder;
        });
    const auto req = randomRequest(0x2A6, 2, 200, 5);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    ASSERT_EQ(sharded.lastShards(), 4u);
    EXPECT_EQ(resp.backend, "simd-parallel+software-baseline");
    core::ReferenceMatcher ref;
    EXPECT_EQ(resp.result, ref.match(req.text, req.pattern));
}

TEST(ShardedService, TracedServeExportsValidChromeTrace)
{
    // Four worker threads record spans into the global trace buffer
    // concurrently; serve()'s batch join is the happens-before edge
    // the export contract requires. Run under TSan by check.sh.
    auto &buf = telem::TraceBuffer::global();
    buf.clear();
    buf.setEnabled(true);

    ShardedMatchService sharded(smallShardConfig(4, 2));
    const auto req = randomRequest(0x7ACE, 2, 200, 5);
    const MatchResponse resp = sharded.serve(req);
    buf.setEnabled(false);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    ASSERT_EQ(sharded.lastShards(), 4u);

    const std::string json = buf.exportChromeJson("sharded test");
    EXPECT_EQ(telem::validateChromeTrace(json), "") << json.substr(0, 400);

    // The batch span and all four shard spans made it into the trace,
    // recorded from more than one thread.
    const auto events = buf.collect();
    std::size_t batch_spans = 0;
    std::size_t shard_spans = 0;
    std::size_t distinct_tids = 0;
    std::vector<bool> tid_seen(64, false);
    for (const telem::SpanEvent &ev : events) {
        if (std::string(ev.name) == "sharded.serve") {
            ++batch_spans;
            EXPECT_EQ(ev.beat, sharded.lastCriticalBeats());
        }
        if (std::string(ev.name) == "sharded.shard")
            ++shard_spans;
        if (ev.tid < tid_seen.size() && !tid_seen[ev.tid]) {
            tid_seen[ev.tid] = true;
            ++distinct_tids;
        }
    }
    EXPECT_EQ(batch_spans, 1u);
    EXPECT_EQ(shard_spans, 4u);
    EXPECT_GE(distinct_tids, 2u);
    buf.clear();
}

TEST(ShardedService, ZeroBatchDeadlineIsRejectedAtConstruction)
{
    // There is no wait-forever mode: every slice wave is bounded.
    ShardedConfig cfg = smallShardConfig(2, 2);
    cfg.batchDeadlineMs = 0;
    EXPECT_THROW(ShardedMatchService sharded(cfg), std::logic_error);
}

TEST(ShardedService, EmptyTextServesEmptyResult)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    MatchRequest req;
    req.id = 1;
    req.pattern = {1, 2};
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_TRUE(resp.result.empty());
    EXPECT_EQ(sharded.lastShards(), 1u);
}

TEST(ShardedService, PatternAsLongAsMinShardCharsRaisesSliceFloor)
{
    // floor_chars = max(minShardChars, k): with k > minShardChars the
    // k-1 warm-up overlap spans more than half of every slice, the
    // hardest stitch shape that still shards.
    const BitWidth bits = 2;
    ShardedMatchService sharded(smallShardConfig(4, bits));
    core::ReferenceMatcher ref;
    for (const std::size_t k : {24u, 30u, 50u}) {
        const auto req = randomRequest(0xDE6 + k, bits, 200, k, 30);
        ASSERT_EQ(req.pattern.size(), k);
        const MatchResponse resp = sharded.serve(req);
        ASSERT_TRUE(resp.ok()) << resp.error.detail;
        EXPECT_GE(sharded.lastShards(), 2u) << "k=" << k;
        EXPECT_EQ(resp.result, ref.match(req.text, req.pattern))
            << "k=" << k << " over " << sharded.lastShards() << " shards";
    }
}

TEST(ShardedService, OverlapSpanningAWholeSliceStitchesExactly)
{
    // k equal to the slice length: every slice's window is nearly
    // half warm-up, and each right extension reaches the far end of
    // the neighbor's first chunk.
    const BitWidth bits = 2;
    ShardedConfig cfg = smallShardConfig(4, bits);
    cfg.minShardChars = 50;
    ShardedMatchService sharded(cfg);
    core::ReferenceMatcher ref;
    const auto req = randomRequest(0xDE7, bits, 200, 50, 20);
    ASSERT_EQ(sharded.shardCountFor(200, 50), 4u);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_EQ(sharded.lastShards(), 4u);
    EXPECT_EQ(resp.result, ref.match(req.text, req.pattern));
}

TEST(ShardedService, SingleCharacterShardsMatchReference)
{
    // minShardChars=1 with a tiny text: one character per shard, the
    // degenerate extreme of the slicing arithmetic (warm-up overlap
    // k-1 = 0 or 1, right extensions clamped at the text end).
    const BitWidth bits = 2;
    ShardedConfig cfg = smallShardConfig(4, bits);
    cfg.minShardChars = 1;
    ShardedMatchService sharded(cfg);
    core::ReferenceMatcher ref;
    for (const std::size_t k : {1u, 2u}) {
        const auto req = randomRequest(0xDE8 + k, bits, 4, k, 0);
        const MatchResponse resp = sharded.serve(req);
        ASSERT_TRUE(resp.ok()) << resp.error.detail;
        EXPECT_EQ(sharded.lastShards(), k == 1 ? 4u : 2u);
        EXPECT_EQ(resp.result, ref.match(req.text, req.pattern)) << "k=" << k;
    }
}

TEST(ShardedService, RepeatedServesAreDeterministic)
{
    ShardedMatchService sharded(smallShardConfig(4, 2));
    const auto req = randomRequest(0xD37, 2, 300, 6);
    const MatchResponse a = sharded.serve(req);
    const Beat crit_a = sharded.lastCriticalBeats();
    const Beat total_a = sharded.lastTotalBeats();
    const MatchResponse b = sharded.serve(req);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a.result, b.result);
    EXPECT_EQ(a.beats, b.beats);
    EXPECT_EQ(crit_a, sharded.lastCriticalBeats());
    EXPECT_EQ(total_a, sharded.lastTotalBeats());
}

} // namespace
} // namespace spm::service
