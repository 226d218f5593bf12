/**
 * @file
 * Unit tests for the BitVec container, including its storage edge:
 * up to BitVec::inlineBits bits held in the object, more on the heap.
 */

#include <algorithm>
#include <utility>

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

/** True when @p v's words live inside the object itself. */
bool
isInline(const BitVec &v)
{
    const auto *p = reinterpret_cast<const char *>(v.words().data());
    const auto *o = reinterpret_cast<const char *>(&v);
    return p >= o && p < o + sizeof v;
}

/**
 * The storage invariants after any step: size() / 64 words rounded
 * up, none of the bits past size() set, and the words inline exactly
 * when the vector holds no more than the inline bits -- unless
 * @p may_spill, when it may keep heap words from an earlier reserve
 * or size.
 */
void
expectWellFormed(const BitVec &v, const char *step, bool may_spill = false)
{
    const auto w = v.words();
    EXPECT_EQ(w.size(), (v.size() + 63) / 64) << step;
    if (v.size() % 64 != 0) {
        EXPECT_EQ(w.back() >> (v.size() % 64), 0u)
            << step << " size " << v.size();
    }
    if (v.size() > BitVec::inlineBits) {
        EXPECT_FALSE(isInline(v)) << step << " size " << v.size();
    } else if (!may_spill) {
        EXPECT_TRUE(isInline(v)) << step << " size " << v.size();
    }
}

/** @p n bits that differ from their neighbours at every offset. */
BitVec
patterned(std::size_t n, std::size_t salt = 0)
{
    BitVec v;
    for (std::size_t i = 0; i < n; ++i)
        v.pushBack(((i + salt) * 7 + (i + salt) / 3) % 5 < 2);
    return v;
}

constexpr std::size_t storageSizes[] = {0, 1, 63, 64, 255, 256, 257, 4096};

TEST(BitVecStorage, InlineUpToTheLineThenHeap)
{
    EXPECT_EQ(BitVec::inlineBits, 256u);
    for (const std::size_t n : storageSizes) {
        const BitVec v = patterned(n);
        EXPECT_EQ(v.size(), n);
        expectWellFormed(v, "pushBack");
        EXPECT_EQ(BitVec::fromString(v.toString()), v) << n;
        const BitVec ones(n, true);
        EXPECT_EQ(ones.popcount(), n);
        expectWellFormed(ones, "fill");
        BitVec flipped = ones;
        flipped.flip();
        EXPECT_EQ(flipped, BitVec(n));
        expectWellFormed(flipped, "flip");
    }
}

TEST(BitVecStorage, CopyAndMoveInBothDirections)
{
    // Every source size onto every target size: inline onto a
    // heap-holding target, heap onto an inline one, and alike.
    for (const std::size_t from : storageSizes) {
        for (const std::size_t to : storageSizes) {
            const BitVec want = patterned(from, 1);
            const std::string tag =
                std::to_string(from) + " onto " + std::to_string(to);

            BitVec copied = patterned(to, 2);
            copied = want;
            EXPECT_EQ(copied, want) << tag;
            expectWellFormed(copied, "copy-assign");

            BitVec source = want;
            const auto *held = source.words().data();
            BitVec moved = patterned(to, 3);
            moved = std::move(source);
            EXPECT_EQ(moved, want) << tag;
            expectWellFormed(moved, "move-assign");
            // A heap vector's words move by pointer; inline ones copy.
            EXPECT_EQ(moved.words().data() == held, from > BitVec::inlineBits)
                << tag;
            // The moved-from vector reads as empty and can be reused.
            EXPECT_TRUE(source.empty()) << tag;
            expectWellFormed(source, "moved-from");
            source.append(want.words(), 0, want.size());
            EXPECT_EQ(source, want) << tag;
            expectWellFormed(source, "reuse");
        }
        const BitVec want = patterned(from, 4);
        BitVec copy(want);
        EXPECT_EQ(copy, want);
        expectWellFormed(copy, "copy-construct");
        BitVec taken(std::move(copy));
        EXPECT_EQ(taken, want);
        expectWellFormed(taken, "move-construct");
        EXPECT_TRUE(copy.empty());
        copy.pushBack(true);
        EXPECT_EQ(copy, BitVec(1, true));
    }
}

TEST(BitVecStorage, SelfCopyAndSelfMoveKeepTheBits)
{
    for (const std::size_t n : storageSizes) {
        const BitVec want = patterned(n);
        BitVec v = want;
        BitVec &alias = v;
        v = alias;
        EXPECT_EQ(v, want) << n;
        expectWellFormed(v, "self-copy");
        v = std::move(alias);
        EXPECT_EQ(v, want) << n;
        expectWellFormed(v, "self-move");
    }
}

TEST(BitVecStorage, PushBackAcrossTheInlineLine)
{
    BitVec v = patterned(255);
    const BitVec want = patterned(257);
    expectWellFormed(v, "255");
    v.pushBack(want.get(255));
    expectWellFormed(v, "256");
    EXPECT_TRUE(isInline(v));
    v.pushBack(want.get(256));
    expectWellFormed(v, "257");
    EXPECT_EQ(v, want);
}

TEST(BitVecStorage, AppendAcrossTheInlineLine)
{
    const BitVec src = patterned(700, 5);
    for (const std::size_t at : {200u, 250u, 255u, 256u}) {
        for (const std::size_t from : {0u, 1u, 63u}) {
            for (const std::size_t len : {1u, 6u, 7u, 100u, 500u}) {
                BitVec got = patterned(at);
                got.append(src.words(), from, len);
                BitVec want = patterned(at);
                for (std::size_t i = 0; i < len; ++i)
                    want.pushBack(src.get(from + i));
                EXPECT_EQ(got, want)
                    << "at " << at << " from " << from << " len " << len;
                expectWellFormed(got, "append");
            }
        }
    }
}

TEST(BitVecStorage, ReserveThenClearKeepsTheHeapWords)
{
    BitVec v = patterned(100);
    v.reserve(300);
    EXPECT_EQ(v, patterned(100));
    expectWellFormed(v, "reserve", true);
    EXPECT_FALSE(isInline(v));
    const auto *held = v.words().data();
    v.clear();
    EXPECT_TRUE(v.empty());
    expectWellFormed(v, "clear", true);
    v.append(patterned(300, 6).words(), 0, 300);
    EXPECT_EQ(v, patterned(300, 6));
    EXPECT_EQ(v.words().data(), held);
    v.clear();
    for (std::size_t i = 0; i < 70; ++i)
        v.pushBack(true);
    EXPECT_EQ(v, BitVec(70, true));
    expectWellFormed(v, "refill", true);
    v.resize(3);
    v.resize(200);
    EXPECT_EQ(v.popcount(), 3u);
    expectWellFormed(v, "regrow", true);
}

TEST(BitVecStorage, ClearPrefixZeroesWholeAndPartWords)
{
    for (const std::size_t size : {64u, 200u, 300u}) {
        const BitVec ones(size, true);
        for (const std::size_t n : {0u, 1u, 63u, 64u, 65u, 128u, 200u}) {
            if (n > size)
                continue;
            BitVec v = ones;
            v.clearPrefix(n);
            EXPECT_EQ(v.popcount(), size - n) << size << " " << n;
            EXPECT_EQ(v.findFirst(), n == size ? size : n);
            expectWellFormed(v, "clearPrefix");
        }
        BitVec v = ones;
        EXPECT_THROW(v.clearPrefix(size + 1), std::logic_error);
    }
}

} // namespace
} // namespace spm
