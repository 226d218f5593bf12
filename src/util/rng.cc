#include "util/rng.hh"

#include "util/logging.hh"

namespace spm
{

namespace
{

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    for (auto &word : state) {
        word = splitmix64(seed);
        seed += 0x9E3779B97F4A7C15ULL;
    }
}

std::uint64_t
Rng::next()
{
    const std::uint64_t result = rotl(state[1] * 5, 7) * 9;
    const std::uint64_t t = state[1] << 17;
    state[2] ^= state[0];
    state[3] ^= state[1];
    state[1] ^= state[2];
    state[0] ^= state[3];
    state[2] ^= t;
    state[3] = rotl(state[3], 45);
    return result;
}

std::uint64_t
Rng::nextBelow(std::uint64_t bound)
{
    spm_assert(bound != 0, "Rng::nextBelow: zero bound");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t(0) - (~std::uint64_t(0) % bound);
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % bound;
}

std::int64_t
Rng::nextInRange(std::int64_t lo, std::int64_t hi)
{
    spm_assert(lo <= hi, "Rng::nextInRange: empty range");
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(span == 0 ? next()
                                                    : nextBelow(span));
}

double
Rng::nextDouble()
{
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool
Rng::nextBool(double p)
{
    return nextDouble() < p;
}

WorkloadGen::WorkloadGen(std::uint64_t seed, BitWidth alphabet_bits)
    : gen(seed), width(alphabet_bits),
      sigma(static_cast<Symbol>(1u << alphabet_bits))
{
    spm_assert(alphabet_bits >= 1 && alphabet_bits <= 15,
               "alphabet bits must be in [1,15], got ", alphabet_bits);
}

Symbol
WorkloadGen::randomSymbol()
{
    return static_cast<Symbol>(gen.nextBelow(sigma));
}

std::vector<Symbol>
WorkloadGen::randomText(std::size_t n)
{
    std::vector<Symbol> text(n);
    for (auto &c : text)
        c = randomSymbol();
    return text;
}

std::vector<Symbol>
WorkloadGen::randomPattern(std::size_t k, double wildcard_prob)
{
    std::vector<Symbol> pat(k);
    for (auto &c : pat)
        c = gen.nextBool(wildcard_prob) ? wildcardSymbol : randomSymbol();
    return pat;
}

std::vector<Symbol>
WorkloadGen::textWithPlants(std::size_t n,
                            std::span<const Symbol> pattern,
                            std::size_t plant_every)
{
    spm_assert(plant_every >= pattern.size() && plant_every > 0,
               "plant interval shorter than pattern");
    std::vector<Symbol> text = randomText(n);
    for (std::size_t at = 0; at + pattern.size() <= n; at += plant_every) {
        for (std::size_t j = 0; j < pattern.size(); ++j) {
            text[at + j] = pattern[j] == wildcardSymbol ? randomSymbol()
                                                        : pattern[j];
        }
    }
    return text;
}

} // namespace spm
