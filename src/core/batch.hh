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
 * mask: each stream's row is its span of the kernel's packed words,
 * copied a word at a time, with its first k-1 bits cleared -- so the
 * kernel's reads of the neighbouring stream's characters never reach
 * a row. No separators, no per-stream padding, no per-character test.
 *
 * Each text is read once. Staging narrows it straight into its
 * group's word-aligned region of one byte arena and hands back its
 * OR, which is both the group's plane count and, in the batch front
 * end, the text's alphabet verdict; a text that is not kept is
 * overwritten by the next one staged, so no pass reads it. The kernel
 * then transposes the staged bytes, one pass per group.
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
     * Start a call: group g gets a word-aligned arena region of
     * @p chars[g] bytes, room for every text it may keep. The last
     * call's groups are forgotten.
     */
    void layout(std::span<const std::size_t> chars);

    /**
     * Narrow @p text into group @p g after the texts it keeps and
     * return the text's OR. The text stays only if keep() follows;
     * otherwise the next text staged in @p g overwrites it.
     */
    Symbol stage(std::size_t g, std::span<const Symbol> text);

    /** Keep the text just staged in @p g; @p text_or is its OR. */
    void keep(std::size_t g, std::span<const Symbol> text, Symbol text_or);

    /**
     * One kernel pass over the texts @p g keeps, packed end to end in
     * the order kept, against @p pattern. Valid until the next pass.
     */
    const std::vector<std::uint64_t> &pass(std::size_t g,
                                           std::span<const Symbol> pattern);

    /**
     * The row of a kept text of @p len characters starting at packed
     * position @p at, for a pattern of @p k symbols: standalone-match
     * semantics, bit p set iff the pattern ends at text position p.
     */
    static BitVec row(const std::vector<std::uint64_t> &packed,
                      std::size_t at, std::size_t len, std::size_t k);

    /**
     * Match @p streams (each a whole independent text, by pointer:
     * no caller-side copies) against @p pattern in one kernel pass:
     * one group that keeps every stream. Element i of the result is
     * streams[i]'s row.
     */
    std::vector<BitVec> matchMany(
        const std::vector<const std::vector<Symbol> *> &streams,
        std::span<const Symbol> pattern);

    /** Characters the last pass pushed through the kernel. */
    std::size_t lastKernelChars() const { return kernelChars; }

    /** The wrapped kernel (tier inspection, op counts). */
    const SimdParallelMatcher &kernel() const { return simd; }

  private:
    /** One group's region of the arena. */
    struct Region
    {
        std::size_t base = 0; ///< first byte, word-aligned
        std::size_t room = 0; ///< bytes laid out, whole words
        std::size_t end = 0;  ///< one past the last kept byte
        Symbol seen = 0;      ///< OR of the kept texts
    };

    SimdParallelMatcher simd;
    SimdOps ops; ///< the kernel's tier, for staging

    // --- the staging arena (reused across calls) ---------------------
    std::vector<std::uint8_t> arena; ///< low bytes of the staged texts
    std::vector<std::uint8_t> high;  ///< high bytes, for groups > 8 bits
    std::vector<Region> regions;

    std::size_t kernelChars = 0;
};

} // namespace spm::core

#endif // SPM_CORE_BATCH_HH
