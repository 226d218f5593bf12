#pragma once
/**
 * Multi-pattern dictionary matching: shared types, the naive
 * per-pattern reference, and the chunked-feeding carry state.
 *
 * A dictionary is an ordered list of patterns; matching reports, for
 * every pattern p and text position i, whether the window ending at i
 * equals pattern p (same Section 3.1 semantics as the single-pattern
 * Matcher: bits for i < k_p - 1 are always false, wild cards match
 * any character).  All realizations in this directory must agree
 * bit-for-bit; the conformance registry pairs them against each other
 * and against the single-pattern reference.
 */

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvec.hh"
#include "util/types.hh"

namespace spm::multipattern
{

/** An ordered dictionary; member order is the hit-report order. */
using DictPatterns = std::vector<std::vector<Symbol>>;

/** Per-pattern hit bits: bits[p][i] = pattern p ends at text position
 *  i.  Rows always have one entry per text position. */
struct DictHits {
    std::vector<BitVec> bits;

    std::uint64_t totalHits() const;
    bool operator==(const DictHits &other) const { return bits == other.bits; }
};

/** Length of the longest dictionary member (0 for an empty dict). */
std::size_t longestPattern(const DictPatterns &dict);

/** Interface for whole-dictionary matchers.  Implementations may keep
 *  per-dictionary compiled state internally; matchAll must be a pure
 *  function of (text, dict). */
class DictMatcher
{
  public:
    virtual ~DictMatcher() = default;

    virtual DictHits matchAll(const std::vector<Symbol> &text,
                              const DictPatterns &dict) = 0;
    virtual std::string name() const = 0;
    virtual bool supportsWildcards() const { return true; }
};

/** Trusted baseline: one single-pattern reference scan per member.
 *  O(p * n * k) -- the oracle every faster realization is diffed
 *  against. */
class NaiveDictMatcher final : public DictMatcher
{
  public:
    DictHits matchAll(const std::vector<Symbol> &text,
                      const DictPatterns &dict) override;
    std::string name() const override { return "dict-naive"; }
};

/**
 * Carry state for chunked feeding: the tail holds the last
 * min(kmax - 1, seen) characters so any window straddling a chunk
 * boundary can be replayed, and seen counts total stream characters
 * so positions with insufficient history stay false.  Chunked
 * results must be bit-identical to a one-shot matchAll over the
 * concatenated stream.  The bit-sliced engine feeds it
 * (feedDictChunk in planes.hh).
 */
struct DictStreamState {
    std::vector<Symbol> tail;
    std::uint64_t seen = 0;
};

} // namespace spm::multipattern
