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
 * with a full in-stream history (p >= k-1, counting any carry tail)
 * computes exactly its standalone value even mid-concatenation, and
 * every position without one is false *by definition*. Extraction
 * turns that rule into a start offset: each stream's row is sliced
 * from the kernel's packed words beginning at its first position with
 * a full history, visiting set bits only, with the edge words masked
 * to the stream's span -- so the kernel's reads of the neighbouring
 * stream's characters are never sliced out. No separators, no
 * per-stream padding, no per-character test.
 *
 * Streams longer than one request chunk carry across calls as a raw
 * k-1-character tail (StreamCarry): the last characters already
 * consumed are re-fed ahead of the next chunk, so chunked feeding is
 * bit-identical to matching the whole stream at once -- the property
 * tests and the conformance registry check exactly that. One-shot
 * batches (matchMany) build no carries at all: every stream starts
 * fresh.
 */

#ifndef SPM_CORE_BATCH_HH
#define SPM_CORE_BATCH_HH

#include <cstdint>
#include <vector>

#include "core/simdpar.hh"

namespace spm::core
{

/**
 * Per-stream carry state for chunked feeding: the raw text tail the
 * next chunk needs as look-back history. A carry is bound to one
 * stream and one pattern length; reusing it across patterns of a
 * different length is rejected (the tail would be too short to
 * reconstruct the look-back window).
 */
struct StreamCarry
{
    /** Last min(k-1, seen) characters of the stream so far. */
    std::vector<Symbol> tail;
    /** Stream characters consumed so far. */
    std::uint64_t seen = 0;
    /** Pattern length this carry was fed with (0 = not yet fed). */
    std::size_t patternLen = 0;
};

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
     * Match @p streams (each a whole independent text) against
     * @p pattern in one kernel pass. Element i of the result holds
     * streams[i].size() bits with standalone-match semantics: bit p
     * set iff the pattern ends at stream position p.
     */
    std::vector<std::vector<bool>> matchMany(
        const std::vector<std::vector<Symbol>> &streams,
        const std::vector<Symbol> &pattern);

    /** As above, streams by pointer (no caller-side copies). */
    std::vector<std::vector<bool>> matchMany(
        const std::vector<const std::vector<Symbol> *> &streams,
        const std::vector<Symbol> &pattern);

    /**
     * Feed one chunk per stream: chunks[i] continues the stream
     * carried by carries[i]. Returns the match bits for exactly the
     * new chunk positions (chunks[i].size() bits each, standalone
     * whole-stream semantics) and advances every carry. Empty chunks
     * are fine; streams of different lengths pack into full words.
     *
     * @throws std::invalid_argument when carries and chunks disagree
     *         in count, or a carry was fed with a different pattern
     *         length earlier
     */
    std::vector<std::vector<bool>> feedChunks(
        std::vector<StreamCarry> &carries,
        const std::vector<std::vector<Symbol>> &chunks,
        const std::vector<Symbol> &pattern);

    /** As above, chunks by pointer (no caller-side copies). */
    std::vector<std::vector<bool>> feedChunks(
        std::vector<StreamCarry> &carries,
        const std::vector<const std::vector<Symbol> *> &chunks,
        const std::vector<Symbol> &pattern);

    /** Streams in the last pass. */
    std::size_t lastBatchWidth() const { return batchWidth; }

    /** Characters the last pass pushed through the kernel (with tails). */
    std::size_t lastKernelChars() const { return kernelChars; }

    /** The wrapped kernel (tier inspection, op counts). */
    const SimdParallelMatcher &kernel() const { return simd; }

  private:
    /**
     * Pack, match and slice one pass. @p carries supplies each
     * stream's tail and seen count (read only); nullptr means every
     * stream starts fresh.
     */
    std::vector<std::vector<bool>> pass(
        const std::vector<const std::vector<Symbol> *> &chunks,
        const std::vector<Symbol> &pattern,
        const std::vector<StreamCarry> *carries);

    SimdParallelMatcher simd;

    // --- the scratch arena (reused across calls) ---------------------
    std::vector<Symbol> concat;       ///< packed tails + chunks
    std::vector<std::size_t> segBase; ///< chunk start in concat

    std::size_t batchWidth = 0;
    std::size_t kernelChars = 0;
};

} // namespace spm::core

#endif // SPM_CORE_BATCH_HH
