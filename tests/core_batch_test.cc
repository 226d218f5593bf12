/**
 * @file
 * Property tests for the multi-stream batch matcher: packed
 * multi-stream matching is bit-identical to per-stream reference
 * matching at widths 1, 3, 64 and 1000; chunked feeding through
 * StreamCarry is bit-identical to one-shot matching under randomized
 * chunk boundaries; row slicing is exact at every kernel tier for
 * lanes starting around word boundaries, chunk splits around the
 * k-1 warm-up, all-wildcard (dense-hit) patterns and the 16-bit
 * alphabet; and the carry/shape misuse contracts throw instead of
 * corrupting.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <stdexcept>

#include "core/batch.hh"
#include "core/reference.hh"
#include "tests/helpers.hh"
#include "util/rng.hh"

namespace spm::core
{
namespace
{

/** Deterministic random streams over a small alphabet. */
std::vector<std::vector<Symbol>>
makeStreams(Rng &rng, std::size_t width, std::size_t max_len,
            Symbol sigma)
{
    std::vector<std::vector<Symbol>> streams(width);
    for (auto &s : streams) {
        // Includes empty streams and streams shorter than the pattern.
        s.resize(rng.nextBelow(max_len + 1));
        for (auto &c : s)
            c = static_cast<Symbol>(rng.nextBelow(sigma));
    }
    return streams;
}

std::vector<Symbol>
makePattern(Rng &rng, std::size_t k, Symbol sigma, unsigned wild_pct)
{
    std::vector<Symbol> pattern(k);
    for (auto &c : pattern)
        c = rng.nextBelow(100) < wild_pct
                ? wildcardSymbol
                : static_cast<Symbol>(rng.nextBelow(sigma));
    return pattern;
}

TEST(BatchMatcher, MatchManyEqualsPerStreamReferenceAcrossWidths)
{
    Rng rng(0xBA7C4);
    ReferenceMatcher ref;
    BatchMatcher bm;
    for (const std::size_t width :
         {std::size_t(1), std::size_t(3), std::size_t(64),
          std::size_t(1000)}) {
        const int iters = width >= 1000 ? 2 : (width >= 64 ? 6 : 30);
        for (int iter = 0; iter < iters; ++iter) {
            const std::size_t k = 1 + rng.nextBelow(12);
            const auto pattern = makePattern(rng, k, 4, 15);
            const auto streams = makeStreams(rng, width, 90, 4);
            const auto got = bm.matchMany(streams, pattern);
            ASSERT_EQ(got.size(), width);
            EXPECT_EQ(bm.lastBatchWidth(), width);
            for (std::size_t i = 0; i < width; ++i)
                ASSERT_EQ(got[i], ref.match(streams[i], pattern))
                    << "width=" << width << " stream=" << i
                    << " k=" << k;
        }
    }
}

TEST(BatchMatcher, ChunkedFeedingIsBitIdenticalToOneShot)
{
    Rng rng(0xC4A11);
    ReferenceMatcher ref;
    BatchMatcher bm;
    for (int iter = 0; iter < 120; ++iter) {
        const std::size_t k = 1 + rng.nextBelow(20);
        const auto pattern = makePattern(rng, k, 4, 15);
        const std::size_t width = 1 + rng.nextBelow(6);
        const auto full = makeStreams(rng, width, 200, 4);

        std::vector<StreamCarry> carries(width);
        std::vector<std::vector<bool>> acc(width);
        std::vector<std::size_t> off(width, 0);
        bool more = true;
        while (more) {
            more = false;
            std::vector<std::vector<Symbol>> chunks(width);
            for (std::size_t i = 0; i < width; ++i) {
                const std::size_t left = full[i].size() - off[i];
                const std::size_t take =
                    left == 0
                        ? 0
                        : 1 + rng.nextBelow(std::min<std::size_t>(left,
                                                                  33));
                chunks[i].assign(
                    full[i].begin() +
                        static_cast<std::ptrdiff_t>(off[i]),
                    full[i].begin() +
                        static_cast<std::ptrdiff_t>(off[i] + take));
                off[i] += take;
                if (off[i] < full[i].size())
                    more = true;
            }
            const auto bits = bm.feedChunks(carries, chunks, pattern);
            for (std::size_t i = 0; i < width; ++i)
                acc[i].insert(acc[i].end(), bits[i].begin(),
                              bits[i].end());
        }
        for (std::size_t i = 0; i < width; ++i)
            ASSERT_EQ(acc[i], ref.match(full[i], pattern))
                << "iter=" << iter << " stream=" << i << " k=" << k;
    }
}

TEST(BatchMatcher, CarryTracksTailAndSeen)
{
    BatchMatcher bm;
    const std::vector<Symbol> pattern{1, 2, 0, 3};
    std::vector<StreamCarry> carries(1);
    const std::vector<std::vector<Symbol>> chunk1{{1, 2, 0, 3, 1}};
    bm.feedChunks(carries, chunk1, pattern);
    EXPECT_EQ(carries[0].seen, 5u);
    EXPECT_EQ(carries[0].patternLen, 4u);
    // Tail is the last k-1 = 3 characters consumed.
    EXPECT_EQ(carries[0].tail, (std::vector<Symbol>{0, 3, 1}));

    // A short follow-up chunk rolls the tail, not resets it.
    const std::vector<std::vector<Symbol>> chunk2{{2}};
    bm.feedChunks(carries, chunk2, pattern);
    EXPECT_EQ(carries[0].seen, 6u);
    EXPECT_EQ(carries[0].tail, (std::vector<Symbol>{3, 1, 2}));
}

TEST(BatchMatcher, ShapeAndPatternMisuseThrows)
{
    BatchMatcher bm;
    std::vector<StreamCarry> carries(2);
    const std::vector<std::vector<Symbol>> one_chunk{{1, 2}};
    // Chunk count must equal carry count.
    EXPECT_THROW(bm.feedChunks(carries, one_chunk, {1}),
                 std::invalid_argument);

    // A carry fed with k=2 cannot continue under a k=3 pattern.
    std::vector<StreamCarry> bound(1);
    const std::vector<std::vector<Symbol>> chunk{{1, 2, 3, 1}};
    bm.feedChunks(bound, chunk, {1, 2});
    EXPECT_THROW(bm.feedChunks(bound, chunk, {1, 2, 3}),
                 std::invalid_argument);
}

TEST(BatchMatcher, EmptyChunksAdvanceNothingButStayConsistent)
{
    ReferenceMatcher ref;
    BatchMatcher bm;
    const std::vector<Symbol> pattern{1, wildcardSymbol};
    const std::vector<Symbol> full{1, 2, 1, 3, 1, 1};

    std::vector<StreamCarry> carries(2);
    std::vector<std::vector<Symbol>> chunks{full, {}};
    auto bits = bm.feedChunks(carries, chunks, pattern);
    EXPECT_EQ(bits[0], ref.match(full, pattern));
    EXPECT_TRUE(bits[1].empty());
    EXPECT_EQ(carries[1].seen, 0u);

    // The all-empty pass is a no-op with well-formed empty results.
    chunks = {{}, {}};
    bits = bm.feedChunks(carries, chunks, pattern);
    EXPECT_TRUE(bits[0].empty());
    EXPECT_TRUE(bits[1].empty());
}

TEST(BatchMatcher, WorkloadStreamsAgreeWithReference)
{
    // Conformance-generator workloads as lanes: wild cards, planted
    // matches and varied alphabets, all in one pack per pattern.
    ReferenceMatcher ref;
    BatchMatcher bm;
    for (std::uint64_t base = 0; base < 8; ++base) {
        const auto lead = test::makeWorkload(base * 31);
        std::vector<std::vector<Symbol>> streams{lead.text};
        for (std::uint64_t i = 1; i < 5; ++i)
            streams.push_back(
                test::makeShapedWorkload(base * 977 + i, lead.bits, 64,
                                         lead.pattern.size(), 0)
                    .text);
        const auto got = bm.matchMany(streams, lead.pattern);
        for (std::size_t i = 0; i < streams.size(); ++i)
            ASSERT_EQ(got[i], ref.match(streams[i], lead.pattern))
                << "base=" << base << " lane=" << i << " case "
                << lead.caseId;
    }
}

/** Every kernel tier this CPU can execute. */
std::vector<SimdIsa>
supportedTiers()
{
    std::vector<SimdIsa> tiers;
    for (const SimdIsa isa :
         {SimdIsa::Scalar, SimdIsa::Sse2, SimdIsa::Avx2})
        if (simdIsaSupported(isa))
            tiers.push_back(isa);
    return tiers;
}

std::vector<Symbol>
randomText(Rng &rng, std::size_t n, std::uint32_t sigma)
{
    std::vector<Symbol> text(n);
    for (auto &c : text)
        c = static_cast<Symbol>(rng.nextBelow(sigma));
    return text;
}

TEST(BatchMatcher, SlicesLanesAroundWordBoundariesAtEveryTier)
{
    // A lane of every length 0..2*64+k, started just before, on and
    // just after a word boundary (behind a pad lane of 63/64/65
    // characters), with a trailing lane behind it. The all-wildcard
    // pattern makes every kept position a hit, so a neighbour-lane
    // leak or an off-by-one warm-up shows as a wrong dense word.
    Rng rng(0x511CE);
    ReferenceMatcher ref;
    for (const SimdIsa isa : supportedTiers()) {
        BatchMatcher bm(isa);
        for (const std::size_t k :
             {std::size_t(1), std::size_t(2), std::size_t(7),
              std::size_t(65)}) {
            const std::vector<Symbol> wild(k, wildcardSymbol);
            const auto mixed = makePattern(rng, k, 2, 30);
            for (std::size_t len = 0; len <= 2 * 64 + k; ++len) {
                for (const std::size_t pad :
                     {std::size_t(63), std::size_t(64), std::size_t(65)}) {
                    const std::vector<std::vector<Symbol>> lanes{
                        randomText(rng, pad, 2), randomText(rng, len, 2),
                        randomText(rng, 1 + rng.nextBelow(70), 2)};
                    for (const auto *pattern : {&wild, &mixed}) {
                        const auto got = bm.matchMany(lanes, *pattern);
                        for (std::size_t i = 0; i < lanes.size(); ++i)
                            ASSERT_EQ(got[i], ref.match(lanes[i], *pattern))
                                << simdIsaName(isa) << " k=" << k
                                << " len=" << len << " pad=" << pad
                                << " lane=" << i
                                << (pattern == &wild ? " all-wild" : "");
                    }
                }
            }
        }
    }
}

TEST(BatchMatcher, ChunkSplitsAroundWarmupAtEveryTier)
{
    // Chunked streams whose first chunks end before, at and after
    // position k-1 (including chunks shorter than k-1), fed side by
    // side so every warm-up offset differs across the lanes of one
    // pass.
    Rng rng(0xC0FF5);
    ReferenceMatcher ref;
    for (const SimdIsa isa : supportedTiers()) {
        BatchMatcher bm(isa);
        for (const std::size_t k :
             {std::size_t(2), std::size_t(5), std::size_t(9),
              std::size_t(70)}) {
            const std::vector<Symbol> wild(k, wildcardSymbol);
            const auto mixed = makePattern(rng, k, 2, 30);
            // First-chunk lengths straddling k-1, then a second
            // chunk that is itself short of, at or past the warm-up.
            std::vector<std::size_t> cuts{0, 1, k - 1, k, k + 1};
            if (k >= 3) {
                cuts.push_back(k - 3);
                cuts.push_back(k - 2);
            }
            for (const auto *pattern : {&wild, &mixed}) {
                const std::size_t width = cuts.size() * cuts.size();
                std::vector<std::vector<Symbol>> full(width);
                std::vector<std::array<std::size_t, 2>> split(width);
                for (std::size_t a = 0; a < cuts.size(); ++a)
                    for (std::size_t b = 0; b < cuts.size(); ++b) {
                        const std::size_t i = a * cuts.size() + b;
                        split[i] = {cuts[a], cuts[b]};
                        full[i] = randomText(
                            rng, cuts[a] + cuts[b] + rng.nextBelow(80), 2);
                    }
                std::vector<StreamCarry> carries(width);
                std::vector<std::vector<bool>> acc(width);
                for (std::size_t step = 0; step < 3; ++step) {
                    std::vector<std::vector<Symbol>> chunks(width);
                    for (std::size_t i = 0; i < width; ++i) {
                        const std::size_t from =
                            step == 0 ? 0
                                      : split[i][0] +
                                            (step == 2 ? split[i][1] : 0);
                        const std::size_t to =
                            step == 2 ? full[i].size()
                                      : split[i][0] +
                                            (step == 1 ? split[i][1] : 0);
                        chunks[i].assign(
                            full[i].begin() +
                                static_cast<std::ptrdiff_t>(from),
                            full[i].begin() +
                                static_cast<std::ptrdiff_t>(to));
                    }
                    const auto bits = bm.feedChunks(carries, chunks, *pattern);
                    for (std::size_t i = 0; i < width; ++i)
                        acc[i].insert(acc[i].end(), bits[i].begin(),
                                      bits[i].end());
                }
                for (std::size_t i = 0; i < width; ++i)
                    ASSERT_EQ(acc[i], ref.match(full[i], *pattern))
                        << simdIsaName(isa) << " k=" << k << " split="
                        << split[i][0] << "+" << split[i][1]
                        << (pattern == &wild ? " all-wild" : "");
            }
        }
    }
}

TEST(BatchMatcher, SixteenBitAlphabetAtEveryTier)
{
    // Symbols across the full 16-bit range (wild card excluded), with
    // the pattern cut from a lane so matches occur.
    Rng rng(0x16B17);
    ReferenceMatcher ref;
    for (const SimdIsa isa : supportedTiers()) {
        BatchMatcher bm(isa);
        for (int iter = 0; iter < 20; ++iter) {
            std::vector<std::vector<Symbol>> streams(9);
            for (auto &s : streams)
                s = randomText(rng, rng.nextBelow(200), 8);
            for (auto &s : streams)
                for (auto &c : s)
                    c = static_cast<Symbol>(0xFF00 + c * 0x1F);
            const std::size_t k = 1 + rng.nextBelow(10);
            std::vector<Symbol> pattern(k, Symbol(0xFFFE));
            const auto &src = streams[rng.nextBelow(streams.size())];
            if (src.size() >= k)
                std::copy(src.end() - static_cast<std::ptrdiff_t>(k),
                          src.end(), pattern.begin());
            if (rng.nextBelow(4) == 0)
                pattern[rng.nextBelow(k)] = wildcardSymbol;
            const auto got = bm.matchMany(streams, pattern);
            for (std::size_t i = 0; i < streams.size(); ++i)
                ASSERT_EQ(got[i], ref.match(streams[i], pattern))
                    << simdIsaName(isa) << " iter=" << iter
                    << " lane=" << i;
        }
    }
}

TEST(BatchMatcher, ForcedTierBatchesIdentically)
{
    Rng rng(0x15AB);
    BatchMatcher best;
    BatchMatcher scalar(SimdIsa::Scalar);
    const auto pattern = makePattern(rng, 9, 4, 20);
    const auto streams = makeStreams(rng, 17, 120, 4);
    EXPECT_EQ(best.matchMany(streams, pattern),
              scalar.matchMany(streams, pattern));
    EXPECT_EQ(scalar.kernel().isa(), SimdIsa::Scalar);
}

} // namespace
} // namespace spm::core
