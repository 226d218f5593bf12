/**
 * @file
 * The bit-sliced matcher kernel, at scalar, SSE2 and AVX2 width.
 *
 * The chip's whole argument is one result bit per text character per
 * beat (Section 3.1); this kernel is the software counterpart. The
 * text is transposed into bit planes -- plane b holds bit b of 64
 * consecutive characters per machine word, the bit-serial
 * organization of Section 3.3.2 turned sideways -- and every pattern
 * position is applied with Shift-And-style word recurrences:
 *
 *     eq(c)[i] = AND_b (plane_b[i] == bit b of c)      (XNOR + AND)
 *     r[i]     = AND_j eq(p_j)[i - (k-1) + j]          (shift + AND)
 *
 * so one 64-bit AND evaluates 64 text positions at once, and wild
 * cards cost nothing (their factor is all-ones and is skipped). The
 * same recurrences run at three register widths -- portable uint64,
 * 128-bit SSE2 and 256-bit AVX2 -- in the spirit of the packed
 * short-pattern matchers of Faro & Kulekci ("Fast Packed String
 * Matching for Short Patterns"). Every tier shares three choices:
 *
 *   transpose   for alphabets of at most 8 bits the text is narrowed
 *               to bytes and transposed with compare + movemask, 32
 *               characters per instruction, instead of one character
 *               per loop iteration;
 *   recurrence  patterns with k <= 64 (one result word of history)
 *               take a fused single-pass recurrence: every plane word
 *               is read once and all pattern-position factors are
 *               combined in registers, instead of one sweep over the
 *               result stream per pattern position. Longer patterns
 *               cache one equality mask per distinct symbol and run
 *               one shifted-AND sweep per non-wild position;
 *   arena       all scratch (byte text, planes, equality masks, the
 *               packed result) lives in a reusable member arena, so
 *               steady-state match() calls allocate nothing.
 *
 * Instruction sets are selected at runtime (AVX2 when the CPU has it,
 * else SSE2 on x86-64, else portable uint64), and every variant is
 * bit-identical to core::ReferenceMatcher -- the conformance registry
 * carries the best-ISA kernel and the forced-down variants as
 * separate oracles. The SPM_SIMD_ISA environment variable ("scalar",
 * "sse2", "avx2") caps the auto-detected choice for A/B runs.
 */

#ifndef SPM_CORE_SIMDPAR_HH
#define SPM_CORE_SIMDPAR_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/matcher.hh"

namespace spm::core
{

/** Instruction-set tier the kernel dispatch can select. */
enum class SimdIsa : unsigned char
{
    Scalar, ///< portable uint64 ops: 64 positions per word
    Sse2,   ///< 128-bit planes
    Avx2,   ///< 256-bit planes
};

/** Printable name ("scalar", "sse2", "avx2"). */
const char *simdIsaName(SimdIsa isa);

/**
 * The best tier this process may use: CPU detection capped by the
 * SPM_SIMD_ISA environment variable. Computed once, then cached.
 */
SimdIsa bestSimdIsa();

/** Whether @p isa is executable on this CPU. */
bool simdIsaSupported(SimdIsa isa);

/**
 * Bit planes needed to tell apart every symbol of text[0, n) and every
 * bit set in @p also_seen (the pattern side's literal symbols): the
 * width of their OR, at least 1.
 */
unsigned planeCount(const Symbol *text, std::size_t n, Symbol also_seen);

namespace detail
{
struct KernelOps;
} // namespace detail

/**
 * The tier-dispatched word operations the bit-sliced kernels are built
 * from. SimdParallelMatcher runs on them and so does the fused
 * dictionary sweep (multipattern/planes.hh), so the tier the
 * SPM_SIMD_ISA cap selects runs the same vector code on both paths.
 * Every tier is bit-identical; packed words hold 64 text positions,
 * word w bit i being position 64 w + i.
 */
class SimdOps
{
  public:
    explicit SimdOps(SimdIsa isa);

    /**
     * Transpose text[0, n) into @p planes bit planes: plane b, word w
     * lands at plane[b * stride + w]. Positions from n up to the next
     * word boundary transpose as symbol 0. Alphabets of at most 8 bits
     * are narrowed into @p bytes first (grown as needed).
     */
    void transpose(const Symbol *text, std::size_t n, unsigned planes,
                   std::uint64_t *plane, std::size_t stride,
                   std::vector<std::uint8_t> &bytes) const;

    /** out[w] = positions of words [0, nw) where the planes spell @p c. */
    void eqMask(const std::uint64_t *plane, std::size_t stride,
                unsigned planes, Symbol c, std::uint64_t *out,
                std::size_t nw) const;

    /**
     * dst[j] = a[j] & shiftUp(src, bs)[j] for j < count, where
     * shiftUp(src, bs)[j] = src[j] << bs | src[j - 1] >> (64 - bs): the
     * AND step of the shift-AND recurrence. Needs bs < 64; src[-1] is
     * read only when bs != 0. dst may alias a.
     */
    void andShifted(std::uint64_t *dst, const std::uint64_t *a,
                    const std::uint64_t *src, std::size_t count,
                    unsigned bs) const;

  private:
    const detail::KernelOps *ops;
};

/**
 * SIMD evaluation of the Section 3.1 problem.
 *
 * Stateless between calls apart from the scratch arena, so one
 * instance serves requests of any shape -- but not from two threads
 * concurrently; the sharded service and the batch front end give each
 * worker its own instance.
 */
class SimdParallelMatcher : public Matcher
{
  public:
    /** Dispatch on the best supported tier. */
    SimdParallelMatcher();

    /**
     * Force a tier (capped at what the CPU supports); used by the
     * conformance oracles and the A/B benches. A forced instance
     * reports the tier in name() so differential reports distinguish
     * the variants.
     */
    explicit SimdParallelMatcher(SimdIsa forced);

    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override;

    std::string name() const override;

    /**
     * The kernel proper: the packed result stream, 64 text positions
     * per word, word w bit i corresponding to text position 64 w + i.
     * Bits for incomplete substrings (i < k-1) are 0, as are the
     * unused bits past the text length in the last word. The returned
     * reference points into the arena and is valid until the next
     * call on this instance.
     */
    const std::vector<std::uint64_t> &matchPacked(
        const std::vector<Symbol> &text,
        const std::vector<Symbol> &pattern);

    /** Tier this instance dispatches to. */
    SimdIsa isa() const { return tier; }

    /** 64-bit-word-equivalent operations in the last matchPacked(). */
    std::uint64_t lastWordOps() const { return wordOps; }

    /** Bit planes built by the last matchPacked(). */
    unsigned lastPlanes() const { return planesBuilt; }

    /** Whether the last call took the fused short-pattern path. */
    bool lastShortPath() const { return usedShortPath; }

    /** High-water scratch footprint in bytes (proves arena reuse). */
    std::size_t arenaBytes() const;

  private:
    SimdIsa tier;
    bool forcedTier = false;

    // --- the scratch arena (reused across calls) ---------------------
    std::vector<std::uint8_t> byteText;    ///< narrowed text, padded
    std::vector<std::uint64_t> planeArena; ///< planesBuilt x nw, flat
    std::vector<std::uint64_t> eqArena;    ///< equality masks, flat
    std::vector<std::pair<Symbol, std::size_t>> eqIndex;
    std::vector<std::uint64_t> result;  ///< packed result words

    std::uint64_t wordOps = 0;
    unsigned planesBuilt = 0;
    bool usedShortPath = false;
};

/**
 * The first @p n bits of a packed result stream as a BitVec, copied a
 * word at a time -- what match() does after matchPacked(). Kept under
 * this name for the perfbench probe that times that copy.
 */
BitVec unpackResultBits(const std::vector<std::uint64_t> &packed,
                        std::size_t n);

} // namespace spm::core

#endif // SPM_CORE_SIMDPAR_HH
