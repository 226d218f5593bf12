/** @file Unit tests for the executable problem specification. */

#include <gtest/gtest.h>

#include "core/reference.hh"
#include "tests/helpers.hh"
#include "util/strings.hh"

namespace spm::core
{
namespace
{

TEST(SymbolMatches, WildcardMatchesAnything)
{
    EXPECT_TRUE(symbolMatches(wildcardSymbol, 0));
    EXPECT_TRUE(symbolMatches(wildcardSymbol, 999));
    EXPECT_TRUE(symbolMatches(3, 3));
    EXPECT_FALSE(symbolMatches(3, 4));
}

TEST(Reference, PaperFigure31Example)
{
    // "the pattern AXC matches the substrings ... Result bits r_2,
    // r_5, and r_6 are thus set to 1, and all other result bits are 0"
    // (Section 3.1, over the text used in tests/helpers.hh).
    ReferenceMatcher ref;
    const auto r = ref.match(test::paperText(), test::paperPattern());
    const BitVec want = BitVec::fromString("0010011000");
    EXPECT_EQ(r, want);
}

TEST(Reference, ExactMatchNoWildcards)
{
    ReferenceMatcher ref;
    const auto r =
        ref.match(parseSymbols("ABABAB"), parseSymbols("ABA"));
    const BitVec want = BitVec::fromString("001010");
    EXPECT_EQ(r, want);
}

TEST(Reference, OverlappingMatchesAllReported)
{
    ReferenceMatcher ref;
    const auto r = ref.match(parseSymbols("AAAA"), parseSymbols("AA"));
    EXPECT_EQ(r, BitVec::fromString("0111"));
}

TEST(Reference, SingleCharacterPattern)
{
    ReferenceMatcher ref;
    const auto r = ref.match(parseSymbols("ABA"), parseSymbols("A"));
    EXPECT_EQ(r, BitVec::fromString("101"));
}

TEST(Reference, AllWildcardPatternMatchesEverywhere)
{
    ReferenceMatcher ref;
    const auto r = ref.match(parseSymbols("ABCD"), parseSymbols("XX"));
    EXPECT_EQ(r, BitVec::fromString("0111"));
}

TEST(Reference, DegenerateInputs)
{
    ReferenceMatcher ref;
    EXPECT_TRUE(ref.match({}, parseSymbols("A")).empty());
    EXPECT_EQ(ref.match(parseSymbols("AB"), {}),
              BitVec::fromString("00"));
    // Pattern longer than text: nothing can match.
    EXPECT_EQ(ref.match(parseSymbols("AB"), parseSymbols("ABC")),
              BitVec::fromString("00"));
}

TEST(Reference, WildcardIntransitivityExample)
{
    // Section 3.1's point: with wild cards the matches relation is
    // not transitive. Pattern AX matches both texts AC and AB, yet AC
    // and AB do not match each other as patterns over those texts.
    ReferenceMatcher ref;
    EXPECT_TRUE(ref.match(parseSymbols("AC"), parseSymbols("AX")).get(1));
    EXPECT_TRUE(ref.match(parseSymbols("AB"), parseSymbols("AX")).get(1));
    EXPECT_FALSE(ref.match(parseSymbols("AC"), parseSymbols("AB")).get(1));
}

TEST(ReferenceCounts, CountsMatchingPositions)
{
    // pattern AB against text ABAB: window AB = 2 matches, BA = 0.
    const auto c = referenceMatchCounts(parseSymbols("ABAB"),
                                        parseSymbols("AB"));
    EXPECT_EQ(c, (std::vector<unsigned>{0, 2, 0, 2}));
}

TEST(ReferenceCounts, WildcardsCountAsMatches)
{
    const auto c = referenceMatchCounts(parseSymbols("AB"),
                                        parseSymbols("XC"));
    EXPECT_EQ(c, (std::vector<unsigned>{0, 1}));
}

TEST(ReferenceCorrelation, SquaredDifferences)
{
    // text 1,2,3 pattern 1,1: r_1 = 0 + 1 = 1, r_2 = 1 + 4 = 5.
    const auto r = referenceCorrelation({1, 2, 3}, {1, 1});
    EXPECT_EQ(r, (std::vector<std::int64_t>{0, 1, 5}));
}

TEST(ReferenceCorrelation, ExactAlignmentIsZero)
{
    const auto r = referenceCorrelation({5, -3, 2, 5, -3}, {5, -3});
    EXPECT_EQ(r[1], 0);
    EXPECT_EQ(r[4], 0);
}

} // namespace
} // namespace spm::core
