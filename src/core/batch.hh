/**
 * @file
 * Multi-stream batched matching.
 *
 * The north-star serving shape gets its throughput from batch width
 * -- millions of short independent streams -- not from one hot
 * stream, but a bit-sliced kernel only earns its keep when its words
 * are full. BatchMatcher closes that gap: many independent streams
 * against one pattern are packed end to end into a single text and
 * pushed through one SimdParallelMatcher pass, so a 64-character
 * stream no longer wastes the tail of its last plane word on
 * padding; the next stream's characters fill it.
 *
 * Correctness of the packing rests on one observation: a match bit at
 * stream position p only looks back k-1 characters, so a position
 * with a full in-stream history (p >= k-1) computes exactly its
 * standalone value even mid-concatenation, and every position without
 * one is false *by definition*. Extraction turns that rule into a
 * start offset: each stream's row is sliced from the kernel's packed
 * words beginning at position k-1, visiting set bits only, with the
 * edge words masked to the stream's span -- so the kernel's reads of
 * the neighbouring stream's characters are never sliced out. No
 * separators, no per-stream padding, no per-character test.
 */

#ifndef SPM_CORE_BATCH_HH
#define SPM_CORE_BATCH_HH

#include <span>
#include <vector>

#include "core/simdpar.hh"

namespace spm::core
{

/**
 * One matcher pass over many independent streams.
 *
 * Like the kernels it wraps: stateless between calls apart from the
 * scratch arena, single-threaded per instance.
 */
class BatchMatcher
{
  public:
    /** Batch over the best-ISA SIMD kernel. */
    BatchMatcher();

    /** Batch over a forced kernel tier (conformance / A-B runs). */
    explicit BatchMatcher(SimdIsa forced);

    /**
     * Match @p streams (each a whole independent text, by pointer:
     * no caller-side copies) against @p pattern in one kernel pass.
     * Element i of the result holds streams[i]->size() bits with
     * standalone-match semantics: bit p set iff the pattern ends at
     * stream position p.
     */
    std::vector<BitVec> matchMany(
        const std::vector<const std::vector<Symbol> *> &streams,
        std::span<const Symbol> pattern);

    /** Characters the last pass pushed through the kernel. */
    std::size_t lastKernelChars() const { return kernelChars; }

    /** The wrapped kernel (tier inspection, op counts). */
    const SimdParallelMatcher &kernel() const { return simd; }

  private:
    SimdParallelMatcher simd;

    // --- the scratch arena (reused across calls) ---------------------
    std::vector<Symbol> concat;       ///< packed streams
    std::vector<std::size_t> segBase; ///< stream start in concat

    std::size_t kernelChars = 0;
};

} // namespace spm::core

#endif // SPM_CORE_BATCH_HH
