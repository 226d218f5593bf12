/** @file Unit tests for the BitVec container. */

#include <algorithm>

#include <gtest/gtest.h>

#include "util/bitvec.hh"

namespace spm
{
namespace
{

TEST(BitVec, StartsEmpty)
{
    BitVec v;
    EXPECT_EQ(v.size(), 0u);
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ConstructFilled)
{
    BitVec zeros(100, false);
    EXPECT_EQ(zeros.size(), 100u);
    EXPECT_EQ(zeros.popcount(), 0u);

    BitVec ones(100, true);
    EXPECT_EQ(ones.popcount(), 100u);
    for (std::size_t i = 0; i < 100; ++i)
        EXPECT_TRUE(ones.get(i));
}

TEST(BitVec, SetAndGet)
{
    BitVec v(130);
    v.set(0, true);
    v.set(64, true);
    v.set(129, true);
    EXPECT_TRUE(v.get(0));
    EXPECT_TRUE(v.get(64));
    EXPECT_TRUE(v.get(129));
    EXPECT_FALSE(v.get(1));
    EXPECT_FALSE(v.get(63));
    EXPECT_EQ(v.popcount(), 3u);

    v.set(64, false);
    EXPECT_FALSE(v.get(64));
    EXPECT_EQ(v.popcount(), 2u);
}

TEST(BitVec, PushBackCrossesWordBoundary)
{
    BitVec v;
    for (int i = 0; i < 70; ++i)
        v.pushBack(i % 3 == 0);
    EXPECT_EQ(v.size(), 70u);
    for (int i = 0; i < 70; ++i)
        EXPECT_EQ(v.get(i), i % 3 == 0) << "bit " << i;
}

TEST(BitVec, FromStringAndToString)
{
    const std::string s = "0110100101";
    BitVec v = BitVec::fromString(s);
    EXPECT_EQ(v.toString(), s);
    EXPECT_EQ(v.popcount(), 5u);
}

TEST(BitVec, FromStringRejectsJunk)
{
    EXPECT_THROW(BitVec::fromString("01a"), std::logic_error);
}

TEST(BitVec, FindFirst)
{
    BitVec v(200);
    EXPECT_EQ(v.findFirst(), 200u);
    v.set(131, true);
    EXPECT_EQ(v.findFirst(), 131u);
    v.set(7, true);
    EXPECT_EQ(v.findFirst(), 7u);
}

TEST(BitVec, LogicalOperators)
{
    BitVec a = BitVec::fromString("1100");
    BitVec b = BitVec::fromString("1010");
    EXPECT_EQ((a & b).toString(), "1000");
    EXPECT_EQ((a | b).toString(), "1110");
    EXPECT_EQ((a ^ b).toString(), "0110");
}

TEST(BitVec, SizeMismatchPanics)
{
    BitVec a(4), b(5);
    EXPECT_THROW(a &= b, std::logic_error);
}

TEST(BitVec, FlipRespectsTail)
{
    BitVec v(66, false);
    v.flip();
    EXPECT_EQ(v.popcount(), 66u);
    v.flip();
    EXPECT_EQ(v.popcount(), 0u);
}

TEST(BitVec, ResizeGrowsWithValue)
{
    BitVec v(10, false);
    v.resize(80, true);
    EXPECT_EQ(v.size(), 80u);
    EXPECT_EQ(v.popcount(), 70u);
    for (std::size_t i = 0; i < 10; ++i)
        EXPECT_FALSE(v.get(i));
    for (std::size_t i = 10; i < 80; ++i)
        EXPECT_TRUE(v.get(i));
}

TEST(BitVec, ResizeShrinkDropsBits)
{
    BitVec v(80, true);
    v.resize(5);
    EXPECT_EQ(v.size(), 5u);
    EXPECT_EQ(v.popcount(), 5u);
}

TEST(BitVec, EqualityIncludesLength)
{
    EXPECT_EQ(BitVec::fromString("101"), BitVec::fromString("101"));
    EXPECT_FALSE(BitVec::fromString("101") == BitVec::fromString("1010"));
}

TEST(BitVec, OutOfRangeAccessPanics)
{
    BitVec v(8);
    EXPECT_THROW(v.get(8), std::logic_error);
    EXPECT_THROW(v.set(9, true), std::logic_error);
}

TEST(BitVec, AppendCopiesAnyRangeToAnyOffset)
{
    // A source whose bits differ from their neighbours at every
    // offset, so a range shifted by one bit cannot pass.
    BitVec src;
    for (std::size_t i = 0; i < 300; ++i)
        src.pushBack((i * 7 + i / 3) % 5 < 2);
    for (const std::size_t from : {0u, 1u, 63u, 64u, 65u}) {
        for (const std::size_t at : {0u, 1u, 63u, 64u, 65u}) {
            for (const std::size_t len : {0u, 1u, 64u, 130u}) {
                BitVec got(at, true);
                got.append(src.words(), from, len);
                BitVec want(at, true);
                for (std::size_t i = 0; i < len; ++i)
                    want.pushBack(src.get(from + i));
                EXPECT_EQ(got, want)
                    << "from " << from << " at " << at << " len " << len;
                EXPECT_EQ(got.popcount(), want.popcount());
            }
        }
    }
}

TEST(BitVec, AppendPastTheSourcePanics)
{
    const BitVec src(70);
    BitVec v;
    EXPECT_THROW(v.append(src.words(), 60, 69), std::logic_error);
}

TEST(BitVec, IteratorsWalkTheBitsWithAnOffset)
{
    const BitVec whole = BitVec::fromString("0110100111010001");
    const BitVec tail = BitVec::fromString("0111010001");
    EXPECT_TRUE(std::equal(tail.begin(), tail.end(), whole.begin() + 6));
    EXPECT_FALSE(std::equal(tail.begin(), tail.end(), whole.begin() + 5));
    EXPECT_EQ(whole.end() - whole.begin(), 16);
    EXPECT_EQ(std::count(whole.begin(), whole.end(), true), 8);
    std::size_t i = 0;
    for (const bool b : whole)
        EXPECT_EQ(b, whole.get(i++));
    EXPECT_EQ(i, whole.size());
}

TEST(BitVec, EqualityIgnoresBitsPastSize)
{
    BitVec shrunk(130, true);
    shrunk.resize(65);
    EXPECT_EQ(shrunk, BitVec(65, true));

    BitVec appended(3, true);
    appended.append(BitVec(128, true).words(), 0, 62);
    EXPECT_EQ(appended, BitVec(65, true));

    BitVec cleared = BitVec::fromString("111");
    cleared.set(2, false);
    cleared.resize(2);
    EXPECT_EQ(cleared, BitVec::fromString("11"));
}

} // namespace
} // namespace spm
