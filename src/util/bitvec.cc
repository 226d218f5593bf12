#include "util/bitvec.hh"

#include <algorithm>
#include <bit>

#include "util/logging.hh"

namespace spm
{

BitVec::BitVec(std::size_t n, bool value)
{
    resize(n, value);
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
    resize(numBits + len);
    // Top up the partly used last word (its new bits are 0 by now).
    std::size_t i = 0;
    if (at % bitsPerWord != 0 && len != 0) {
        i = std::min(len, bitsPerWord - at % bitsPerWord);
        bitWords[at / bitsPerWord] |= read(from, i) << (at % bitsPerWord);
    }
    if (i == len)
        return;
    // Then whole words, each but the last a funnel shift of two source
    // words. Shifting by 1 and then 63 - sh is a shift by 64 - sh that
    // is 0 at sh = 0, so the loop has no branch and vectorizes.
    const std::size_t sh = (from + i) % bitsPerWord;
    const std::uint64_t *in = src.data() + (from + i) / bitsPerWord;
    std::uint64_t *out = bitWords.data() + (at + i) / bitsPerWord;
    const std::size_t whole = (len - i - 1) / bitsPerWord;
    for (std::size_t j = 0; j < whole; ++j)
        out[j] = in[j] >> sh | in[j + 1] << 1 << (63 - sh);
    i += whole * bitsPerWord;
    out[whole] = read(from + i, len - i);
}

void
BitVec::clear()
{
    bitWords.clear();
    numBits = 0;
}

void
BitVec::resize(std::size_t n, bool value)
{
    std::size_t old_bits = numBits;
    std::size_t new_words = (n + bitsPerWord - 1) / bitsPerWord;
    bitWords.resize(new_words, value ? ~std::uint64_t(0) : 0);
    numBits = n;
    if (value && n > old_bits) {
        // Bits in the partially used old tail word must be set by hand.
        for (std::size_t i = old_bits; i < n && i % bitsPerWord != 0; ++i)
            set(i, true);
    }
    trimTail();
}

std::size_t
BitVec::popcount() const
{
    // Result streams are sparse; skipping zero words beats counting
    // them where popcount is not one instruction.
    std::size_t total = 0;
    for (std::uint64_t w : bitWords)
        if (w != 0)
            total += static_cast<std::size_t>(std::popcount(w));
    return total;
}

std::size_t
BitVec::findFirst() const
{
    for (std::size_t wi = 0; wi < bitWords.size(); ++wi) {
        if (bitWords[wi] != 0) {
            return wi * bitsPerWord +
                   static_cast<std::size_t>(std::countr_zero(bitWords[wi]));
        }
    }
    return numBits;
}

BitVec &
BitVec::operator&=(const BitVec &other)
{
    spm_assert(numBits == other.numBits, "BitVec size mismatch");
    for (std::size_t i = 0; i < bitWords.size(); ++i)
        bitWords[i] &= other.bitWords[i];
    return *this;
}

BitVec &
BitVec::operator|=(const BitVec &other)
{
    spm_assert(numBits == other.numBits, "BitVec size mismatch");
    for (std::size_t i = 0; i < bitWords.size(); ++i)
        bitWords[i] |= other.bitWords[i];
    return *this;
}

BitVec &
BitVec::operator^=(const BitVec &other)
{
    spm_assert(numBits == other.numBits, "BitVec size mismatch");
    for (std::size_t i = 0; i < bitWords.size(); ++i)
        bitWords[i] ^= other.bitWords[i];
    return *this;
}

void
BitVec::flip()
{
    for (auto &w : bitWords)
        w = ~w;
    trimTail();
}

bool
BitVec::operator==(const BitVec &other) const
{
    return numBits == other.numBits && bitWords == other.bitWords;
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
    std::size_t used = numBits % bitsPerWord;
    if (used != 0 && !bitWords.empty())
        bitWords.back() &= (std::uint64_t(1) << used) - 1;
}

} // namespace spm
