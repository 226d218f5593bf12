#include "service/checkpoint.hh"

namespace spm::service
{

namespace
{

constexpr std::uint64_t fnvPrime = 0x100000001B3ULL;

void
fnvMix(std::uint64_t &h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= fnvPrime;
    }
}

/** @p v with bit i moved to bit 63 - i. */
std::uint64_t
reverseBits(std::uint64_t v)
{
    v = (v >> 1 & 0x5555555555555555ULL) | (v & 0x5555555555555555ULL) << 1;
    v = (v >> 2 & 0x3333333333333333ULL) | (v & 0x3333333333333333ULL) << 2;
    v = (v >> 4 & 0x0F0F0F0F0F0F0F0FULL) | (v & 0x0F0F0F0F0F0F0F0FULL) << 4;
    return __builtin_bswap64(v);
}

} // namespace

void
Checkpoint::emit(const BitVec &bits, std::size_t from, std::size_t to)
{
    emittedBits.append(bits.words(), from, to - from);
    const std::span<const std::uint64_t> words = emittedBits.words();
    for (; foldedWords < emittedBits.size() / 64; ++foldedWords)
        fnvMix(wordsDigest, reverseBits(words[foldedWords]));
}

std::uint64_t
Checkpoint::digest(std::span<const Symbol> tail) const
{
    std::uint64_t h = wordsDigest;
    fnvMix(h, offset);
    fnvMix(h, rung);
    fnvMix(h, beats);
    for (Symbol s : tail)
        fnvMix(h, s);
    // A partial last word, its latest bit in bit 0, carries a 1 above
    // its bits so its length counts.
    if (const std::size_t fill = emittedBits.size() % 64; fill > 0)
        fnvMix(h, (reverseBits(emittedBits.words().back()) >> (64 - fill)) |
                      (std::uint64_t(1) << fill));
    return h;
}

} // namespace spm::service
