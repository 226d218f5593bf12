/**
 * @file
 * Deterministic random number generation for workloads.
 *
 * All experiments in the reproduction are seeded so that tests and
 * benches are exactly repeatable. The generator is SplitMix64 followed
 * by xoshiro256**, both public-domain constructions, implemented here to
 * keep the repository dependency-free.
 */

#ifndef SPM_UTIL_RNG_HH
#define SPM_UTIL_RNG_HH

#include <cstdint>
#include <span>
#include <vector>

#include "util/types.hh"

namespace spm
{

/**
 * The SplitMix64 finalizer of @p x advanced by one golden-ratio step:
 * a stateless 64-bit mix. It seeds Rng and is the deterministic hash
 * behind the telemetry reservoir draws and the chaos schedules.
 */
inline std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/**
 * A small, fast, deterministic PRNG (xoshiro256**).
 *
 * Not cryptographic; used only to generate synthetic text, patterns and
 * signals for tests and benchmarks.
 */
class Rng
{
  public:
    /** Seed the state via SplitMix64 expansion of @p seed. */
    explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform value in [0, bound); @p bound must be nonzero. */
    std::uint64_t nextBelow(std::uint64_t bound);

    /** Uniform integer in the closed interval [lo, hi]. */
    std::int64_t nextInRange(std::int64_t lo, std::int64_t hi);

    /** Uniform double in [0, 1). */
    double nextDouble();

    /** Bernoulli draw with probability @p p of true. */
    bool nextBool(double p = 0.5);

  private:
    std::uint64_t state[4];
};

/**
 * Generators for the paper's workloads: text strings over an alphabet
 * Sigma and patterns over Sigma plus the wild card (Section 3.1).
 */
class WorkloadGen
{
  public:
    /**
     * @param seed deterministic seed
     * @param alphabet_bits bits per character; |Sigma| = 2^alphabet_bits
     *        (the fabricated prototype used 2-bit characters)
     */
    WorkloadGen(std::uint64_t seed, BitWidth alphabet_bits);

    /** Alphabet size. */
    Symbol alphabetSize() const { return sigma; }

    /** Bits per character. */
    BitWidth bits() const { return width; }

    /** A uniform random character from Sigma. */
    Symbol randomSymbol();

    /** A text string of @p n uniform characters. */
    std::vector<Symbol> randomText(std::size_t n);

    /**
     * A pattern of @p k characters where each position independently is
     * the wild card with probability @p wildcard_prob.
     */
    std::vector<Symbol> randomPattern(std::size_t k,
                                      double wildcard_prob = 0.0);

    /**
     * A text string of @p n characters salted with planted occurrences
     * of @p pattern so that matches are guaranteed to exist.
     * Wild card positions in the pattern are filled with random symbols.
     *
     * @param plant_every approximate distance between plants
     */
    std::vector<Symbol> textWithPlants(std::size_t n,
                                       std::span<const Symbol> pattern,
                                       std::size_t plant_every);

    /** Direct access to the underlying generator. */
    Rng &rng() { return gen; }

  private:
    Rng gen;
    BitWidth width;
    Symbol sigma;
};

} // namespace spm

#endif // SPM_UTIL_RNG_HH
