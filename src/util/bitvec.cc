#include "util/bitvec.hh"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "util/logging.hh"

namespace spm
{

BitVec::BitVec(std::size_t n, bool value)
{
    resize(n, value);
}

BitVec::BitVec(const BitVec &other) : numBits(other.numBits)
{
    const std::size_t n = words().size();
    if (n > inlineWords) {
        heap = new std::uint64_t[n];
        capWords = n;
    }
    std::copy_n(other.data(), n, data());
}

BitVec &
BitVec::operator=(const BitVec &other)
{
    if (this != &other)
        *this = BitVec(other);
    return *this;
}

BitVec &
BitVec::operator=(BitVec &&other) noexcept
{
    if (this != &other) {
        release();
        // The union copies as raw words: a heap pointer or inline words.
        std::memcpy(local, other.local, sizeof local);
        numBits = std::exchange(other.numBits, 0);
        capWords = std::exchange(other.capWords, inlineWords);
    }
    return *this;
}

void
BitVec::ensure(std::size_t n)
{
    if (n <= capWords)
        return;
    const std::size_t room = std::max(n, 2 * capWords);
    auto *fresh = new std::uint64_t[room];
    std::ranges::copy(words(), fresh);
    release();
    heap = fresh;
    capWords = room;
}

BitVec
BitVec::fromString(const std::string &bits)
{
    BitVec v;
    for (char c : bits) {
        spm_assert(c == '0' || c == '1',
                   "BitVec::fromString: bad character '", c, "'");
        v.pushBack(c == '1');
    }
    return v;
}

void
BitVec::outOfRange(const char *op, std::size_t idx) const
{
    spm_panic("BitVec::", op, ": index ", idx, " out of range ", numBits);
}

void
BitVec::append(std::span<const std::uint64_t> src, std::size_t from,
               std::size_t len)
{
    spm_assert(from + len <= src.size() * bitsPerWord,
               "BitVec::append: bits [", from, ", ", from + len,
               ") past a source of ", src.size(), " words");
    // Source bits [bit, bit + n), n <= 64, from one or two words.
    const auto read = [&src](std::size_t bit, std::size_t n) {
        const std::size_t sh = bit % bitsPerWord;
        std::uint64_t v = src[bit / bitsPerWord] >> sh;
        if (sh + n > bitsPerWord)
            v |= src[bit / bitsPerWord + 1] << (bitsPerWord - sh);
        return n == bitsPerWord ? v : v & ((std::uint64_t(1) << n) - 1);
    };
    const std::size_t at = numBits;
    ensure((at + len + bitsPerWord - 1) / bitsPerWord);
    numBits = at + len;
    std::uint64_t *out = data() + at / bitsPerWord;
    // Top up the partly used last word (its bits past size() are 0).
    std::size_t i = 0;
    if (at % bitsPerWord != 0 && len != 0) {
        i = std::min(len, bitsPerWord - at % bitsPerWord);
        *out++ |= read(from, i) << (at % bitsPerWord);
    }
    if (i == len)
        return;
    // Then whole words, each but the last a funnel shift of two source
    // words. Shifting by 1 and then 63 - sh is a shift by 64 - sh that
    // is 0 at sh = 0, so the loop has no branch and vectorizes.
    const std::size_t sh = (from + i) % bitsPerWord;
    const std::uint64_t *in = src.data() + (from + i) / bitsPerWord;
    const std::size_t whole = (len - i - 1) / bitsPerWord;
    for (std::size_t j = 0; j < whole; ++j)
        out[j] = in[j] >> sh | in[j + 1] << 1 << (63 - sh);
    i += whole * bitsPerWord;
    out[whole] = read(from + i, len - i);
}

void
BitVec::clearPrefix(std::size_t n)
{
    if (n > numBits)
        outOfRange("clearPrefix", n);
    std::uint64_t *w = data();
    std::fill(w, w + n / bitsPerWord, std::uint64_t(0));
    if (n % bitsPerWord != 0)
        w[n / bitsPerWord] &= ~std::uint64_t(0) << (n % bitsPerWord);
}

void
BitVec::resize(std::size_t n, bool value)
{
    const std::size_t old_words = words().size();
    const std::size_t new_words = (n + bitsPerWord - 1) / bitsPerWord;
    ensure(new_words);
    std::uint64_t *w = data();
    // Bits in the partially used old tail word are set by mask.
    if (value && n > numBits && numBits % bitsPerWord != 0)
        w[old_words - 1] |= ~std::uint64_t(0) << numBits % bitsPerWord;
    for (std::size_t i = old_words; i < new_words; ++i)
        w[i] = value ? ~std::uint64_t(0) : 0;
    numBits = n;
    trimTail();
}

std::size_t
BitVec::popcount() const
{
    // Result streams are sparse; skipping zero words beats counting
    // them where popcount is not one instruction.
    std::size_t total = 0;
    for (std::uint64_t w : words())
        if (w != 0)
            total += static_cast<std::size_t>(std::popcount(w));
    return total;
}

std::size_t
BitVec::findFirst() const
{
    for (std::size_t wi = 0; wi < words().size(); ++wi) {
        if (data()[wi] != 0) {
            return wi * bitsPerWord +
                   static_cast<std::size_t>(std::countr_zero(data()[wi]));
        }
    }
    return numBits;
}

BitVec &
BitVec::operator&=(const BitVec &other)
{
    spm_assert(numBits == other.numBits, "BitVec size mismatch");
    std::ranges::transform(words(), other.words(), data(), std::bit_and<>());
    return *this;
}

BitVec &
BitVec::operator|=(const BitVec &other)
{
    spm_assert(numBits == other.numBits, "BitVec size mismatch");
    std::ranges::transform(words(), other.words(), data(), std::bit_or<>());
    return *this;
}

BitVec &
BitVec::operator^=(const BitVec &other)
{
    spm_assert(numBits == other.numBits, "BitVec size mismatch");
    std::ranges::transform(words(), other.words(), data(), std::bit_xor<>());
    return *this;
}

void
BitVec::flip()
{
    std::ranges::transform(words(), data(), std::bit_not<>());
    trimTail();
}

bool
BitVec::operator==(const BitVec &other) const
{
    return numBits == other.numBits &&
           std::ranges::equal(words(), other.words());
}

std::string
BitVec::toString() const
{
    std::string s;
    s.reserve(numBits);
    for (std::size_t i = 0; i < numBits; ++i)
        s.push_back(get(i) ? '1' : '0');
    return s;
}

void
BitVec::trimTail()
{
    if (const std::size_t used = numBits % bitsPerWord; used != 0)
        data()[numBits / bitsPerWord] &= (std::uint64_t(1) << used) - 1;
}

} // namespace spm
