#include "service/checkpoint.hh"

namespace spm::service
{

namespace
{

constexpr std::uint64_t fnvOffset = 0xCBF29CE484222325ULL;
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

std::uint64_t
Checkpoint::digest() const
{
    std::uint64_t h = fnvOffset;
    fnvMix(h, offset);
    fnvMix(h, rung);
    fnvMix(h, beats);
    for (Symbol s : tail)
        fnvMix(h, s);
    // Pack the emitted bits 64 at a time so the digest price stays
    // negligible next to the match itself.
    std::uint64_t word = 0;
    std::size_t fill = 0;
    for (bool b : emitted) {
        word = (word << 1) | (b ? 1 : 0);
        if (++fill == 64) {
            fnvMix(h, word);
            word = 0;
            fill = 0;
        }
    }
    if (fill > 0)
        fnvMix(h, word | (std::uint64_t(1) << fill));
    return h;
}

} // namespace spm::service
