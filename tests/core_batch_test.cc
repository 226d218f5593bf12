/**
 * @file
 * Property tests for the multi-stream batch matcher: packed
 * multi-stream matching is bit-identical to per-stream reference
 * matching at widths 1, 3, 64 and 1000; empty streams yield empty
 * rows; and row slicing is exact at every kernel tier for lanes
 * starting around word boundaries, at every word offset around the
 * warm-up and inline-storage edges, for all-wildcard (dense-hit)
 * patterns, the 16-bit alphabet and narrow texts staged beside a wide
 * one.
 */

#include <gtest/gtest.h>

#include <algorithm>

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

/** matchMany over @p streams, passed by pointer. */
std::vector<BitVec>
matchAll(BatchMatcher &bm, const std::vector<std::vector<Symbol>> &streams,
         const std::vector<Symbol> &pattern)
{
    std::vector<const std::vector<Symbol> *> ptrs;
    for (const auto &s : streams)
        ptrs.push_back(&s);
    return bm.matchMany(ptrs, pattern);
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
            const auto got = matchAll(bm, streams, pattern);
            ASSERT_EQ(got.size(), width);
            for (std::size_t i = 0; i < width; ++i)
                ASSERT_EQ(got[i], ref.match(streams[i], pattern))
                    << "width=" << width << " stream=" << i
                    << " k=" << k;
        }
    }
}

TEST(BatchMatcher, EmptyStreamsYieldEmptyRows)
{
    ReferenceMatcher ref;
    BatchMatcher bm;
    const std::vector<Symbol> pattern{1, wildcardSymbol};
    const std::vector<Symbol> full{1, 2, 1, 3, 1, 1};

    auto bits = matchAll(bm, std::vector<std::vector<Symbol>>{full, {}},
                             pattern);
    EXPECT_EQ(bits[0], ref.match(full, pattern));
    EXPECT_TRUE(bits[1].empty());

    // The all-empty pass is well formed: one empty row per stream.
    bits = matchAll(bm, std::vector<std::vector<Symbol>>{{}, {}}, pattern);
    ASSERT_EQ(bits.size(), 2u);
    EXPECT_TRUE(bits[0].empty());
    EXPECT_TRUE(bits[1].empty());
    EXPECT_EQ(bm.lastKernelChars(), 0u);
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
        const auto got = matchAll(bm, streams, lead.pattern);
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
                        const auto got = matchAll(bm, lanes, *pattern);
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

TEST(BatchMatcher, RowAtEveryWordOffsetAroundTheInlineLine)
{
    // BatchMatcher::row straight off one kernel pass: a text behind a
    // pad of 0..63 characters (so it starts at every at % 64) with a
    // trailing text after it, of length k-2, k-1 and k (the warm-up
    // edge) and 255, 256 and 257 (the edge of BitVec's inline words).
    // k = 65 clears a whole first word. The all-wildcard pattern makes
    // every kept position a hit, so a leak from either neighbour or
    // an off-by-one warm-up shows.
    Rng rng(0x20A5);
    ReferenceMatcher ref;
    SimdParallelMatcher simd;
    for (const std::size_t k :
         {std::size_t(2), std::size_t(8), std::size_t(65)}) {
        const std::vector<Symbol> wild(k, wildcardSymbol);
        const auto mixed = makePattern(rng, k, 2, 30);
        for (const std::size_t len :
             {k - 2, k - 1, k, std::size_t(255), std::size_t(256),
              std::size_t(257)}) {
            for (std::size_t at = 0; at < 64; ++at) {
                const std::vector<Symbol> text = randomText(rng, len, 2);
                std::vector<Symbol> whole = randomText(rng, at, 2);
                whole.insert(whole.end(), text.begin(), text.end());
                const std::vector<Symbol> after = randomText(rng, 70, 2);
                whole.insert(whole.end(), after.begin(), after.end());
                for (const auto *pattern : {&wild, &mixed}) {
                    const BitVec got = BatchMatcher::row(
                        simd.matchPacked(whole, *pattern), at, len, k);
                    ASSERT_EQ(got, ref.match(text, *pattern))
                        << "k=" << k << " len=" << len << " at=" << at
                        << (pattern == &wild ? " all-wild" : "");
                }
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
            const auto got = matchAll(bm, streams, pattern);
            for (std::size_t i = 0; i < streams.size(); ++i)
                ASSERT_EQ(got[i], ref.match(streams[i], pattern))
                    << simdIsaName(isa) << " iter=" << iter
                    << " lane=" << i;
        }
    }
}

TEST(BatchMatcher, NarrowTextsBesideAWideOneReadHighByteZero)
{
    // The staging arena is reused across calls: a call of wide texts
    // leaves high bytes behind, and a later group whose one wide text
    // follows narrow ones must read the narrow texts' high bytes as 0.
    Rng rng(0x41DE);
    ReferenceMatcher ref;
    const std::vector<Symbol> pattern{1, 2, wildcardSymbol};
    const auto widen = [](std::vector<Symbol> text) {
        for (auto &c : text)
            c = static_cast<Symbol>(0x100 * (1 + c) | c);
        return text;
    };
    for (const SimdIsa isa : supportedTiers()) {
        BatchMatcher bm(isa);
        for (int iter = 0; iter < 10; ++iter) {
            std::vector<std::vector<Symbol>> wide(6);
            for (auto &s : wide)
                s = widen(randomText(rng, 40 + rng.nextBelow(100), 4));
            matchAll(bm, wide, pattern);
            std::vector<std::vector<Symbol>> mixed(6);
            for (auto &s : mixed)
                s = randomText(rng, 40 + rng.nextBelow(100), 4);
            mixed.back() = widen(mixed.back());
            const auto got = matchAll(bm, mixed, pattern);
            for (std::size_t i = 0; i < mixed.size(); ++i)
                ASSERT_EQ(got[i], ref.match(mixed[i], pattern))
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
    EXPECT_EQ(matchAll(best, streams, pattern),
              matchAll(scalar, streams, pattern));
    EXPECT_EQ(scalar.kernel().isa(), SimdIsa::Scalar);
}

} // namespace
} // namespace spm::core
