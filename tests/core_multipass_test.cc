/** @file Tests for the multipass long-pattern driver (Section 3.4). */

#include <gtest/gtest.h>

#include "core/behavioral.hh"
#include "core/multipass.hh"
#include "core/reference.hh"
#include "tests/helpers.hh"
#include "util/strings.hh"

namespace spm::core
{
namespace
{

TEST(Multipass, PatternLongerThanArray)
{
    // An 4-cell system matching a 10-character pattern: impossible in
    // one pass, handled by delaying the string between runs.
    MultipassMatcher mp(4);
    ReferenceMatcher ref;
    WorkloadGen gen(41, 2);
    const auto pat = gen.randomPattern(10, 0.2);
    const auto text = gen.textWithPlants(100, pat, 13);
    EXPECT_EQ(mp.match(text, pat), ref.match(text, pat));
}

TEST(Multipass, RunCountMatchesCoverageWindows)
{
    // n - k + 1 substring starts, m per run.
    MultipassMatcher mp(8);
    WorkloadGen gen(42, 2);
    const auto pat = gen.randomPattern(5);
    const auto text = gen.randomText(50);
    mp.match(text, pat);
    // 46 starts in windows of 8: 6 runs.
    EXPECT_EQ(mp.lastRuns(), 6u);
}

TEST(Multipass, SinglePassWhenPatternFits)
{
    MultipassMatcher mp(16);
    WorkloadGen gen(43, 2);
    const auto pat = gen.randomPattern(4);
    const auto text = gen.randomText(19); // 16 starts: one window
    mp.match(text, pat);
    EXPECT_EQ(mp.lastRuns(), 1u);
}

TEST(Multipass, ThroughputPenaltyVsRecirculation)
{
    // A too-small array pays dearly: covering a long text in 4-cell
    // windows takes many times the beats of a right-sized
    // recirculating chip processing the same text once.
    MultipassMatcher small(4);
    BehavioralMatcher sized(16);
    WorkloadGen gen(44, 2);
    const auto pat = gen.randomPattern(16);
    const auto text = gen.randomText(400);
    EXPECT_EQ(small.match(text, pat), sized.match(text, pat));
    EXPECT_GT(small.lastBeats(), 4 * sized.lastBeats())
        << "many small runs cost far more beats than one pass";
}

TEST(Multipass, SingleCellSystem)
{
    // Degenerate: a one-cell system resolves one substring per run.
    MultipassMatcher mp(1);
    ReferenceMatcher ref;
    const auto text = parseSymbols("ABCABA");
    const auto pat = parseSymbols("AB");
    EXPECT_EQ(mp.match(text, pat), ref.match(text, pat));
    EXPECT_EQ(mp.lastRuns(), 5u);
}

TEST(Multipass, DegenerateInputs)
{
    MultipassMatcher mp(4);
    EXPECT_TRUE(mp.match({}, parseSymbols("A")).empty());
    EXPECT_EQ(mp.match(parseSymbols("A"), parseSymbols("AB")),
              BitVec::fromString("0"));
    EXPECT_EQ(mp.lastRuns(), 0u);
}

/** Property sweep across array sizes and pattern lengths. */
class MultipassProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MultipassProperty, MatchesReferenceOnRandomWorkloads)
{
    const std::uint64_t seed = GetParam();
    WorkloadGen gen(seed * 17 + 3, 1 + seed % 3);
    const std::size_t cells = 1 + gen.rng().nextBelow(6);
    const std::size_t len = 1 + gen.rng().nextBelow(3 * cells);
    const auto pat = gen.randomPattern(len, 0.25);
    const auto text = gen.textWithPlants(len + 50, pat, len + 2);

    MultipassMatcher mp(cells);
    ReferenceMatcher ref;
    EXPECT_EQ(mp.match(text, pat), ref.match(text, pat))
        << cells << " cells, pattern " << len;
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, MultipassProperty,
                         ::testing::Range<std::uint64_t>(0, 20));

} // namespace
} // namespace spm::core
