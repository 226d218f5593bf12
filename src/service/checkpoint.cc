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

} // namespace

void
Checkpoint::emit(const std::vector<bool> &bits, std::size_t from,
                 std::size_t to)
{
    for (std::size_t j = from; j < to; ++j) {
        partial = (partial << 1) | (bits[j] ? 1 : 0);
        if (++fill == 64) {
            words.push_back(partial);
            fnvMix(wordsDigest, partial);
            partial = 0;
            fill = 0;
        }
    }
}

std::vector<bool>
Checkpoint::emitted() const
{
    std::vector<bool> bits;
    bits.reserve(emittedCount());
    for (std::uint64_t w : words)
        for (unsigned b = 64; b-- > 0;)
            bits.push_back(((w >> b) & 1) != 0);
    for (unsigned b = fill; b-- > 0;)
        bits.push_back(((partial >> b) & 1) != 0);
    return bits;
}

std::uint64_t
Checkpoint::digest() const
{
    std::uint64_t h = wordsDigest;
    fnvMix(h, offset);
    fnvMix(h, rung);
    fnvMix(h, beats);
    for (Symbol s : tail)
        fnvMix(h, s);
    // A partial last word carries a 1 above its bits so its length
    // counts.
    if (fill > 0)
        fnvMix(h, partial | (std::uint64_t(1) << fill));
    return h;
}

} // namespace spm::service
