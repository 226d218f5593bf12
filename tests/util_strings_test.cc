/** @file Unit tests for symbol/string conversions. */

#include <gtest/gtest.h>

#include "util/strings.hh"

namespace spm
{
namespace
{

TEST(Strings, ParseLettersAndWildcards)
{
    const auto syms = parseSymbols("AXC");
    ASSERT_EQ(syms.size(), 3u);
    EXPECT_EQ(syms[0], 0);
    EXPECT_EQ(syms[1], wildcardSymbol);
    EXPECT_EQ(syms[2], 2);
}

TEST(Strings, ParseIsCaseInsensitive)
{
    EXPECT_EQ(parseSymbols("abc"), parseSymbols("ABC"));
    EXPECT_EQ(parseSymbols("x"), parseSymbols("X"));
}

TEST(Strings, ParseSkipsSpaces)
{
    EXPECT_EQ(parseSymbols("A B C"), parseSymbols("ABC"));
}

TEST(Strings, ParseRejectsUnknown)
{
    EXPECT_THROW(parseSymbols("A?C"), std::runtime_error);
}

TEST(Strings, RenderRoundTrips)
{
    const std::string s = "ABCXBA";
    EXPECT_EQ(renderSymbols(parseSymbols(s)), s);
}

/** Braced symbol lists, which a span parameter cannot take. */
using Syms = std::vector<Symbol>;

TEST(Strings, RenderLargeSymbols)
{
    EXPECT_EQ(renderSymbols(Syms{Symbol(100)}), "<100>");
}

TEST(Strings, BytesToSymbols)
{
    const auto syms = bytesToSymbols("a\xff");
    ASSERT_EQ(syms.size(), 2u);
    EXPECT_EQ(syms[0], Symbol('a'));
    EXPECT_EQ(syms[1], Symbol(255));
}

TEST(Strings, RenderMatchPositions)
{
    EXPECT_EQ(renderMatchPositions(BitVec::fromString("01011")), "1, 3, 4");
    EXPECT_EQ(renderMatchPositions(BitVec(2)), "");
}

TEST(Strings, RequiredBits)
{
    EXPECT_EQ(requiredBits(Syms{0}), 1u);
    EXPECT_EQ(requiredBits(Syms{1}), 1u);
    EXPECT_EQ(requiredBits(Syms{2}), 2u);
    EXPECT_EQ(requiredBits(Syms{3}), 2u);
    EXPECT_EQ(requiredBits(Syms{4}), 3u);
    EXPECT_EQ(requiredBits(Syms{255}), 8u);
    // Wild cards do not affect the required width.
    EXPECT_EQ(requiredBits(Syms{wildcardSymbol, 1}), 1u);
}

} // namespace
} // namespace spm
