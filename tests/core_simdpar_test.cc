/**
 * @file
 * Property tests for the bit-sliced matcher: every supported tier
 * bit-identical to the reference across pattern lengths 1..64 (the
 * fused short path) and beyond (the sweep path), all-wildcard
 * patterns, wildcard densities and alphabet widths, plus the packed
 * slack, effort, arena-reuse and forced-tier dispatch invariants the
 * sharded and batch layers and the benches rely on.
 */

#include <gtest/gtest.h>

#include "core/reference.hh"
#include "core/simdpar.hh"
#include "tests/helpers.hh"
#include "util/rng.hh"

namespace spm::core
{
namespace
{

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

TEST(SimdParallel, PaperExample)
{
    SimdParallelMatcher sp;
    ReferenceMatcher ref;
    const auto text = test::paperText();
    const auto pattern = test::paperPattern();
    EXPECT_EQ(sp.match(text, pattern), ref.match(text, pattern));
}

TEST(SimdParallel, DegenerateShapes)
{
    ReferenceMatcher ref;
    const std::vector<Symbol> text{1, 2, 3};
    const auto wide = test::makeShapedWorkload(0xA11, 2, 150, 5, 0).text;
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        EXPECT_EQ(sp.match(text, {}), BitVec(3, false));
        EXPECT_EQ(sp.match({}, std::vector<Symbol>{1}), BitVec());
        // Pattern longer than the text never matches.
        EXPECT_EQ(sp.match(text, std::vector<Symbol>{1, 2, 3, 1}),
                  BitVec(3, false));
        // All-wildcard patterns match every full window, on the short
        // path and (k = 70) the sweep path.
        for (const std::size_t k : {std::size_t(1), std::size_t(5),
                                    std::size_t(70)}) {
            const std::vector<Symbol> pattern(k, wildcardSymbol);
            EXPECT_EQ(sp.match(wide, pattern), ref.match(wide, pattern))
                << simdIsaName(isa) << " k=" << k;
        }
    }
}

TEST(SimdParallel, EveryTierEveryShortLengthMatchesReference)
{
    ReferenceMatcher ref;
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        // 1-, 2- and 8-bit alphabets: one plane, the prototype's two,
        // and the widest byte-narrowed transpose.
        for (const BitWidth bits : {BitWidth(1), BitWidth(2),
                                    BitWidth(8)}) {
            for (std::size_t k = 1; k <= 64; ++k) {
                const auto w = test::makeShapedWorkload(
                    0x51D0 + 0x100 * bits + k, bits, 192 + 3 * k, k, 20);
                EXPECT_EQ(sp.match(w.text, w.pattern),
                          ref.match(w.text, w.pattern))
                    << simdIsaName(isa) << " bits=" << int(bits)
                    << " k=" << k << " case " << w.caseId;
                EXPECT_TRUE(sp.lastShortPath()) << "k=" << k;
            }
        }
    }
}

TEST(SimdParallel, LongPatternsTakeTheSweepPath)
{
    ReferenceMatcher ref;
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        for (const std::size_t k :
             {std::size_t(65), std::size_t(96), std::size_t(130),
              std::size_t(257)}) {
            const auto w = test::makeShapedWorkload(0x10C0 + k, 3,
                                                    600 + 2 * k, k, 15);
            EXPECT_EQ(sp.match(w.text, w.pattern),
                      ref.match(w.text, w.pattern))
                << simdIsaName(isa) << " k=" << k << " case "
                << w.caseId;
            EXPECT_FALSE(sp.lastShortPath()) << "k=" << k;
        }
    }
}

TEST(SimdOps, NarrowReturnsTheOrAtEveryTier)
{
    // The one read of a text: its OR, exact at every length around the
    // vector widths (a SIMD tier ends on one step that overlaps the
    // one before) and with symbols above 8 bits anywhere in it, and
    // its bytes, exact wherever every symbol fits in 8 bits. Nothing
    // before or past the destination is written: canary bytes sit on
    // both sides. The text is its own allocation of exactly n symbols,
    // so a sanitizer build sees any read outside it.
    Rng rng(0x0A11);
    constexpr std::size_t guard = 8;
    for (const SimdIsa isa : supportedTiers()) {
        const SimdOps ops(isa);
        for (std::size_t n = 0; n <= 130; ++n) {
            std::vector<Symbol> text(n);
            for (auto &c : text)
                c = static_cast<Symbol>(rng.nextBelow(256));
            const auto plainOr = [&text] {
                Symbol m = 0;
                for (const Symbol c : text)
                    m = static_cast<Symbol>(m | c);
                return m;
            };
            std::vector<std::uint8_t> bytes(guard + n + guard, 0xA5);
            std::uint8_t *dst = bytes.data() + guard;
            EXPECT_EQ(ops.narrow(text.data(), n, dst), plainOr())
                << simdIsaName(isa) << " n=" << n;
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(dst[i], text[i])
                    << simdIsaName(isa) << " n=" << n << " at " << i;
            for (std::size_t i = 0; i < guard; ++i) {
                ASSERT_EQ(bytes[i], 0xA5)
                    << simdIsaName(isa) << " n=" << n << " before " << i;
                ASSERT_EQ(dst[n + i], 0xA5)
                    << simdIsaName(isa) << " n=" << n << " past " << i;
            }
            for (std::size_t at = 0; at < n; at += 1 + n / 5) {
                const Symbol keep = text[at];
                text[at] = static_cast<Symbol>(0x100u << (at % 8) | keep);
                EXPECT_EQ(ops.narrow(text.data(), n, dst), plainOr())
                    << simdIsaName(isa) << " n=" << n << " wide at " << at;
                EXPECT_EQ(dst[n], 0xA5) << simdIsaName(isa) << " n=" << n;
                text[at] = keep;
            }
        }
    }
}

TEST(SimdParallel, WidePatternOverByteTextMatchesReference)
{
    // Planes above 8 bits that only the pattern needs read as zero:
    // the text's high bytes are never staged.
    ReferenceMatcher ref;
    Rng rng(0x91DE);
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        std::vector<Symbol> text(300);
        for (auto &c : text)
            c = static_cast<Symbol>(rng.nextBelow(4));
        for (const std::vector<Symbol> &pattern :
             {std::vector<Symbol>{1, 0x101}, std::vector<Symbol>{2, 0x1234},
              std::vector<Symbol>{3, wildcardSymbol, 0x0800}}) {
            EXPECT_EQ(sp.match(text, pattern), ref.match(text, pattern))
                << simdIsaName(isa);
            EXPECT_GT(sp.lastPlanes(), 8u);
        }
    }
}

TEST(SimdParallel, WideAlphabetsMatchReference)
{
    // Alphabets beyond 8 bits stage their high bytes too; each byte
    // half takes the byte transpose.
    ReferenceMatcher ref;
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        for (const BitWidth bits : {BitWidth(9), BitWidth(12),
                                    BitWidth(15)}) {
            const auto w =
                test::makeShapedWorkload(0xA1F0 + bits, bits, 400, 9, 15);
            EXPECT_EQ(sp.match(w.text, w.pattern),
                      ref.match(w.text, w.pattern))
                << simdIsaName(isa) << " bits=" << int(bits) << " case "
                << w.caseId;
        }
    }
}

TEST(SimdParallel, RandomizedSweepAgainstReference)
{
    ReferenceMatcher ref;
    SimdParallelMatcher sp;
    for (std::uint64_t i = 0; i < 250; ++i) {
        const auto w = test::makeWorkload(i);
        EXPECT_EQ(sp.match(w.text, w.pattern),
                  ref.match(w.text, w.pattern))
            << "case " << w.caseId;
    }
}

TEST(SimdParallel, ArenaStabilizesAcrossCalls)
{
    SimdParallelMatcher sp;
    const auto w = test::makeShapedWorkload(0xAE4A, 2, 4096, 12, 10);
    sp.match(w.text, w.pattern);
    const std::size_t high = sp.arenaBytes();
    EXPECT_GT(high, 0u);
    for (int i = 0; i < 5; ++i)
        sp.match(w.text, w.pattern);
    // Same shape, same scratch: steady state allocates nothing new.
    EXPECT_EQ(sp.arenaBytes(), high);
}

TEST(SimdParallel, ForcedTierIsClampedAndNamed)
{
    SimdParallelMatcher scalar(SimdIsa::Scalar);
    EXPECT_EQ(scalar.isa(), SimdIsa::Scalar);
    EXPECT_EQ(scalar.name(), "simd-parallel-scalar");

    SimdParallelMatcher best;
    EXPECT_EQ(best.name(), "simd-parallel");
    EXPECT_TRUE(simdIsaSupported(best.isa()));

    // Forcing a tier the CPU lacks clamps down instead of crashing.
    SimdParallelMatcher forced(SimdIsa::Avx2);
    EXPECT_TRUE(simdIsaSupported(forced.isa()));
}

TEST(SimdParallel, PackedWordsAgreeWithUnpackedBits)
{
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        for (const std::size_t n :
             {std::size_t(63), std::size_t(64), std::size_t(65),
              std::size_t(190), std::size_t(500)}) {
            const auto w = test::makeShapedWorkload(0xBEEF + n, 3, n, 7, 10);
            const std::vector<std::uint64_t> packed =
                sp.matchPacked(w.text, w.pattern);
            ASSERT_EQ(packed.size(), (n + 63) / 64);
            EXPECT_EQ(unpackResultBits(packed, n),
                      sp.match(w.text, w.pattern))
                << simdIsaName(isa) << " n=" << n;
            // Slack bits past position n-1 must stay zero: the sharded
            // and batch layers OR whole words without re-masking.
            if (n % 64 != 0) {
                EXPECT_EQ(packed.back() >> (n % 64), 0u)
                    << simdIsaName(isa) << " n=" << n;
            }
        }
    }
}

TEST(SimdParallel, ReportsKernelEffort)
{
    const auto w = test::makeShapedWorkload(0xEFF, 8, 10'000, 16, 0);
    for (const SimdIsa isa : supportedTiers()) {
        SimdParallelMatcher sp(isa);
        sp.matchPacked(w.text, w.pattern);
        EXPECT_GT(sp.lastWordOps(), 0u);
        EXPECT_GE(sp.lastPlanes(), 1u);
        EXPECT_LE(sp.lastPlanes(), 8u);
        // Word ops must be far below the n*k bit operations the scalar
        // reference performs -- that is the whole point of the kernel.
        EXPECT_LT(sp.lastWordOps(), 10'000u * 16u / 4u)
            << simdIsaName(isa);
    }
}

} // namespace
} // namespace spm::core
