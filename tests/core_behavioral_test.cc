/** @file Tests for the character-level behavioral chip. */

#include <gtest/gtest.h>

#include "core/behavioral.hh"
#include "core/reference.hh"
#include "systolic/trace.hh"
#include "tests/helpers.hh"
#include "util/strings.hh"

namespace spm::core
{
namespace
{

TEST(FeedPlan, PatternRecirculates)
{
    const ChipFeedPlan plan(4, parseSymbols("AB"), 10);
    // Even beats carry pattern characters, cycling A B A B ...
    EXPECT_TRUE(plan.patternAt(0).valid);
    EXPECT_EQ(plan.patternAt(0).sym, 0);
    EXPECT_EQ(plan.patternAt(2).sym, 1);
    EXPECT_EQ(plan.patternAt(4).sym, 0);
    EXPECT_FALSE(plan.patternAt(1).valid) << "gaps between characters";
}

TEST(FeedPlan, ControlTrailsPatternByOneBeat)
{
    const ChipFeedPlan plan(4, parseSymbols("AXB"), 10);
    EXPECT_FALSE(plan.controlAt(0).valid);
    const CtlToken c0 = plan.controlAt(1);
    EXPECT_TRUE(c0.valid);
    EXPECT_FALSE(c0.lambda);
    EXPECT_FALSE(c0.x);
    const CtlToken c1 = plan.controlAt(3);
    EXPECT_TRUE(c1.x) << "second pattern character is the wild card";
    const CtlToken c2 = plan.controlAt(5);
    EXPECT_TRUE(c2.lambda) << "lambda marks the last character";
}

TEST(FeedPlan, WildcardEncodedAsOrdinarySymbol)
{
    const ChipFeedPlan plan(4, parseSymbols("X"), 4);
    const PatToken p = plan.patternAt(0);
    EXPECT_TRUE(p.valid);
    EXPECT_NE(p.sym, wildcardSymbol)
        << "the x control bit, not a magic symbol, encodes wild cards";
}

TEST(FeedPlan, TextPhaseMakesStreamsMeet)
{
    // phi must make (phi + cells - 1) even so characters meet inside
    // cells rather than passing between them (Section 3.2.1).
    for (std::size_t m : {1u, 2u, 3u, 8u, 9u}) {
        const ChipFeedPlan plan(m, parseSymbols("A"), 4);
        EXPECT_EQ((plan.textPhase() + m - 1) % 2, 0u) << "m=" << m;
    }
}

TEST(FeedPlan, RejectsPatternLongerThanArray)
{
    EXPECT_THROW(ChipFeedPlan(2, parseSymbols("ABC"), 10),
                 std::logic_error);
}

TEST(Behavioral, PaperFigure31Example)
{
    BehavioralMatcher chip;
    const auto r = chip.match(test::paperText(), test::paperPattern());
    ReferenceMatcher ref;
    EXPECT_EQ(r, ref.match(test::paperText(), test::paperPattern()));
}

TEST(Behavioral, SingleCellChip)
{
    BehavioralMatcher chip(1);
    const auto r = chip.match(parseSymbols("ABAB"), parseSymbols("B"));
    EXPECT_EQ(r, BitVec::fromString("0101"));
}

TEST(Behavioral, DegenerateInputs)
{
    BehavioralMatcher chip(4);
    EXPECT_TRUE(chip.match({}, parseSymbols("A")).empty());
    EXPECT_EQ(chip.match(parseSymbols("A"), parseSymbols("AB")),
              BitVec::fromString("0"));
    EXPECT_EQ(chip.match(parseSymbols("AB"), {}),
              BitVec::fromString("00"));
}

TEST(Behavioral, ThroughputIsOneResultPerTwoBeats)
{
    // n text characters take 2n + O(m) beats regardless of pattern
    // length: the headline property of the systolic design.
    BehavioralMatcher chip(8);
    WorkloadGen gen(3, 2);
    const auto text = gen.randomText(500);
    const auto pat = gen.randomPattern(8);
    chip.match(text, pat);
    EXPECT_LE(chip.lastBeats(), 2 * 500 + 8 + 8);
}

TEST(Behavioral, BeatCountIndependentOfPatternLength)
{
    WorkloadGen gen(4, 2);
    const auto text = gen.randomText(300);
    Beat beats_short = 0, beats_long = 0;
    {
        BehavioralMatcher chip(16);
        chip.match(text, gen.randomPattern(2));
        beats_short = chip.lastBeats();
    }
    {
        BehavioralMatcher chip(16);
        chip.match(text, gen.randomPattern(16));
        beats_long = chip.lastBeats();
    }
    EXPECT_EQ(beats_short, beats_long)
        << "same array, same text: same beat count";
}

TEST(Behavioral, ChipBiggerThanPatternStillCorrect)
{
    ReferenceMatcher ref;
    const auto text = parseSymbols("ABCABCABC");
    const auto pat = parseSymbols("BC");
    for (std::size_t m = 2; m <= 9; ++m) {
        BehavioralMatcher chip(m);
        EXPECT_EQ(chip.match(text, pat), ref.match(text, pat))
            << "m=" << m;
    }
}

TEST(Behavioral, TraceShowsCheckerboard)
{
    BehavioralChip chip(4);
    systolic::TraceRecorder trace;
    chip.attachTrace(&trace);
    const ChipFeedPlan plan(4, parseSymbols("AB"), 6);
    const auto text = parseSymbols("ABABAB");
    for (Beat u = 0; u < 10; ++u) {
        chip.feedPattern(plan.patternAt(u));
        chip.feedControl(plan.controlAt(u));
        chip.feedString(plan.stringAt(u, text));
        chip.feedResult(plan.resultAt(u));
        chip.step();
    }
    EXPECT_EQ(trace.beatCount(), 10u);
    const std::string art = trace.render(chip.engine());
    EXPECT_NE(art.find("cmp0"), std::string::npos);
    EXPECT_NE(art.find("acc0"), std::string::npos);
    // Half the cells are active each beat.
    EXPECT_DOUBLE_EQ(chip.engine().utilization().mean(), 0.5);
}

/** Property sweep: behavioral chip equals the reference definition. */
class BehavioralProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(BehavioralProperty, MatchesReferenceOnRandomWorkloads)
{
    const test::Workload w = test::makeWorkload(GetParam());
    ReferenceMatcher ref;
    // Exercise both exact-size and oversized arrays.
    BehavioralMatcher exact(w.pattern.size());
    BehavioralMatcher oversized(w.pattern.size() + 1 + GetParam() % 5);
    const auto want = ref.match(w.text, w.pattern);
    EXPECT_EQ(exact.match(w.text, w.pattern), want);
    EXPECT_EQ(oversized.match(w.text, w.pattern), want);
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, BehavioralProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

} // namespace
} // namespace spm::core
