/**
 * @file
 * A compact dynamic bit vector.
 *
 * The pattern matcher's output is "a stream of bits, each of which
 * corresponds to one of the characters in the text string" (Section 3.1).
 * BitVec is the container used throughout the repository for result
 * streams, per-beat activity masks, and mask-layer bitmaps.
 *
 * Storage: up to BitVec::inlineBits (256) bits live in the object, so
 * a short result (a batched row, a stream window) costs no heap
 * allocation; longer vectors hold their words on the heap, which
 * clear() keeps. A span from words() lasts until the vector grows, is
 * assigned or is destroyed -- and, unlike a std::vector buffer, until
 * an inline vector is moved, since its words move with it.
 */

#ifndef SPM_UTIL_BITVEC_HH
#define SPM_UTIL_BITVEC_HH

#include <compare>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <span>
#include <string>
#include <utility>

namespace spm
{

/**
 * Dynamically sized vector of bits with word-parallel bulk operations.
 *
 * Bit i lives in word i / 64 at bit i % 64, and the bits past size()
 * in the last word are always 0 -- the layout of the SIMD kernel's
 * packed result stream, so a kernel answer moves in whole words.
 */
class BitVec
{
  public:
    /** Read-only random-access iterator over the bits, index 0 first. */
    class Iter
    {
      public:
        using iterator_category = std::random_access_iterator_tag;
        using value_type = bool;
        using difference_type = std::ptrdiff_t;
        using pointer = void;
        using reference = bool;

        Iter() = default;
        Iter(const BitVec *vec, std::ptrdiff_t at) : v(vec), i(at) {}

        bool operator*() const { return v->get(static_cast<std::size_t>(i)); }
        bool operator[](std::ptrdiff_t d) const { return *(*this + d); }
        Iter &operator+=(std::ptrdiff_t d)
        {
            i += d;
            return *this;
        }
        Iter &operator-=(std::ptrdiff_t d) { return *this += -d; }
        Iter &operator++() { return *this += 1; }
        Iter &operator--() { return *this -= 1; }
        Iter operator++(int) { return {v, i++}; }
        Iter operator--(int) { return {v, i--}; }
        friend Iter operator+(Iter a, std::ptrdiff_t d) { return a += d; }
        friend Iter operator+(std::ptrdiff_t d, Iter a) { return a += d; }
        friend Iter operator-(Iter a, std::ptrdiff_t d) { return a -= d; }
        friend std::ptrdiff_t operator-(Iter a, Iter b) { return a.i - b.i; }
        friend bool operator==(Iter a, Iter b) { return a.i == b.i; }
        friend auto operator<=>(Iter a, Iter b) { return a.i <=> b.i; }

      private:
        const BitVec *v = nullptr;
        std::ptrdiff_t i = 0;
    };

    /** Bits held without a heap allocation. */
    static constexpr std::size_t inlineBits = 256;

    BitVec() = default;

    /** Construct with @p n bits, all set to @p value. */
    explicit BitVec(std::size_t n, bool value = false);

    BitVec(const BitVec &other);
    BitVec(BitVec &&other) noexcept { *this = std::move(other); }
    BitVec &operator=(const BitVec &other);
    /** Takes @p other's bits; @p other reads as empty afterwards. */
    BitVec &operator=(BitVec &&other) noexcept;
    ~BitVec() { release(); }

    /** Construct from a string of '0'/'1' characters. */
    static BitVec fromString(const std::string &bits);

    /** Number of bits held. */
    std::size_t size() const { return numBits; }

    /** True when no bits are held. */
    bool empty() const { return numBits == 0; }

    /** Read the bit at @p idx. */
    bool get(std::size_t idx) const
    {
        if (idx >= numBits)
            outOfRange("get", idx);
        return ((data()[idx / bitsPerWord] >> (idx % bitsPerWord)) & 1) != 0;
    }

    /** Set the bit at @p idx to @p value. */
    void set(std::size_t idx, bool value)
    {
        if (idx >= numBits)
            outOfRange("set", idx);
        const std::size_t at = idx % bitsPerWord;
        std::uint64_t &w = data()[idx / bitsPerWord];
        w = (w & ~(std::uint64_t{1} << at)) | (std::uint64_t{value} << at);
    }

    /** Append one bit. */
    void pushBack(bool value)
    {
        const std::size_t at = numBits % bitsPerWord;
        if (at == 0)
            ensure(numBits / bitsPerWord + 1);
        std::uint64_t &w = data()[numBits / bitsPerWord];
        w = (at == 0 ? 0 : w) | std::uint64_t{value} << at;
        ++numBits;
    }

    /**
     * Append bits [from, from + len) of the packed stream @p src (bit
     * i in word i / 64 at bit i % 64), a word at a time: on an empty
     * vector, one funnel-shifted copy. @p src must not be this
     * vector's own words: growing may move them.
     */
    void append(std::span<const std::uint64_t> src, std::size_t from,
                std::size_t len);

    /** Clear bits [0, @p n), n <= size(), a word at a time. */
    void clearPrefix(std::size_t n);

    /** The packed words; bits past size() in the last one are 0. */
    std::span<const std::uint64_t> words() const
    {
        return {data(), (numBits + bitsPerWord - 1) / bitsPerWord};
    }

    Iter begin() const { return {this, 0}; }
    Iter end() const { return {this, std::ptrdiff_t(numBits)}; }

    /** Remove all bits; heap words stay for reuse. */
    void clear() { numBits = 0; }

    /** Room for @p n bits: growing to n then allocates nothing. */
    void reserve(std::size_t n) { ensure((n + 63) / 64); }

    /** Resize to @p n bits; new bits are @p value. */
    void resize(std::size_t n, bool value = false);

    /** Number of set bits. */
    std::size_t popcount() const;

    /** Index of the first set bit, or size() if none. */
    std::size_t findFirst() const;

    /** Bitwise AND with @p other; sizes must match. */
    BitVec &operator&=(const BitVec &other);

    /** Bitwise OR with @p other; sizes must match. */
    BitVec &operator|=(const BitVec &other);

    /** Bitwise XOR with @p other; sizes must match. */
    BitVec &operator^=(const BitVec &other);

    /** Invert every bit in place. */
    void flip();

    bool operator==(const BitVec &other) const;

    /** Render as a string of '0'/'1' characters, index 0 first. */
    std::string toString() const;

  private:
    static constexpr std::size_t bitsPerWord = 64;
    static constexpr std::size_t inlineWords = inlineBits / bitsPerWord;

    bool onHeap() const { return capWords > inlineWords; }
    std::uint64_t *data() { return onHeap() ? heap : local; }
    const std::uint64_t *data() const { return onHeap() ? heap : local; }

    /** Room for @p n words, keeping those held; growth at least doubles. */
    void ensure(std::size_t n);

    /** Free the heap words, if any. */
    void release()
    {
        if (onHeap())
            delete[] heap;
    }

    /** Panic on an access at @p idx past size(). */
    [[noreturn]] void outOfRange(const char *op, std::size_t idx) const;

    /** Zero any bits beyond numBits in the last word. */
    void trimTail();

    union
    {
        std::uint64_t local[inlineWords] = {};
        std::uint64_t *heap;
    };
    std::size_t numBits = 0;
    std::size_t capWords = inlineWords; ///< > inlineWords: on the heap
};

static_assert(sizeof(BitVec) <= 48, "a BitVec is its inline words + 16 bytes");

inline BitVec
operator&(BitVec a, const BitVec &b)
{
    a &= b;
    return a;
}

inline BitVec
operator|(BitVec a, const BitVec &b)
{
    a |= b;
    return a;
}

inline BitVec
operator^(BitVec a, const BitVec &b)
{
    a ^= b;
    return a;
}

} // namespace spm

#endif // SPM_UTIL_BITVEC_HH
