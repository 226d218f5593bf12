#include "core/simdpar.hh"

#include <algorithm>
#include <cstdlib>
#include <string>

#if defined(__x86_64__)
#define SPM_SIMD_X86 1
#include <immintrin.h>
#else
#define SPM_SIMD_X86 0
#endif

namespace spm::core
{

namespace
{

constexpr std::size_t bitsPerWord = 64;

std::size_t
wordCount(std::size_t n)
{
    return (n + bitsPerWord - 1) / bitsPerWord;
}

/** Smallest bit width that represents @p v (at least 1). */
unsigned
widthOf(Symbol v)
{
    unsigned b = 1;
    while ((static_cast<unsigned>(v) >> b) != 0)
        ++b;
    return b;
}

// ---------------------------------------------------------------------
// Portable (scalar) kernel operations. These are also the tail/edge
// helpers for the SIMD variants, so the vector bodies stay branch-free.
// ---------------------------------------------------------------------

Symbol
narrowScalar(const Symbol *s, std::size_t n, std::uint8_t *dst)
{
    Symbol seen = 0;
    for (std::size_t i = 0; i < n; ++i) {
        seen = static_cast<Symbol>(seen | s[i]);
        dst[i] = static_cast<std::uint8_t>(s[i]);
    }
    return seen;
}

void
transposeBytesScalar(const std::uint8_t *bytes, std::size_t nw,
                     unsigned planes, std::uint64_t *plane,
                     std::size_t stride)
{
    for (std::size_t w = 0; w < nw; ++w) {
        std::uint64_t acc[8] = {0, 0, 0, 0, 0, 0, 0, 0};
        const std::uint8_t *blk = bytes + w * bitsPerWord;
        for (unsigned i = 0; i < bitsPerWord; ++i) {
            const unsigned c = blk[i];
            for (unsigned b = 0; b < planes; ++b)
                acc[b] |= static_cast<std::uint64_t>((c >> b) & 1u) << i;
        }
        for (unsigned b = 0; b < planes; ++b)
            plane[b * stride + w] = acc[b];
    }
}

void
eqSweepScalarRange(const std::uint64_t *plane, std::size_t stride,
                   unsigned planes, Symbol c, std::uint64_t *out,
                   std::size_t wBegin, std::size_t wEnd)
{
    for (std::size_t w = wBegin; w < wEnd; ++w) {
        std::uint64_t acc = ~std::uint64_t(0);
        for (unsigned b = 0; b < planes; ++b) {
            const std::uint64_t p = plane[b * stride + w];
            acc &= ((c >> b) & 1u) ? p : ~p;
        }
        out[w] = acc;
    }
}

void
eqSweepScalar(const std::uint64_t *plane, std::size_t stride,
              unsigned planes, Symbol c, std::uint64_t *out, std::size_t nw)
{
    eqSweepScalarRange(plane, stride, planes, c, out, 0, nw);
}

void
andShiftedScalarRange(std::uint64_t *dst, const std::uint64_t *a,
                      const std::uint64_t *src, unsigned bs,
                      std::size_t jBegin, std::size_t jEnd)
{
    if (bs == 0) {
        for (std::size_t j = jBegin; j < jEnd; ++j)
            dst[j] = a[j] & src[j];
        return;
    }
    for (std::size_t j = jBegin; j < jEnd; ++j)
        dst[j] = a[j] & ((src[j] << bs) | (src[j - 1] >> (bitsPerWord - bs)));
}

void
andShiftedScalar(std::uint64_t *dst, const std::uint64_t *a,
                 const std::uint64_t *src, std::size_t count, unsigned bs)
{
    andShiftedScalarRange(dst, a, src, bs, 0, count);
}

// ---------------------------------------------------------------------
// SSE2 kernel operations (x86-64 baseline; 128-bit planes, 16-char
// compare + movemask transpose).
// ---------------------------------------------------------------------

#if SPM_SIMD_X86

Symbol
narrowSse2(const Symbol *s, std::size_t n, std::uint8_t *dst)
{
    if (n < 16)
        return narrowScalar(s, n, dst);
    // The last step overlaps the one before: it rewrites bytes already
    // written with the same values, and the OR is idempotent.
    __m128i seen = _mm_setzero_si128();
    for (std::size_t at = 0; at < n; at += 16) {
        const std::size_t i = std::min(at, n - 16);
        const __m128i a = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(s + i));
        const __m128i b = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(s + i + 8));
        seen = _mm_or_si128(seen, _mm_or_si128(a, b));
        // Saturating, so exact only when the OR fits in 8 bits.
        _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + i),
                         _mm_packus_epi16(a, b));
    }
    seen = _mm_or_si128(seen, _mm_srli_si128(seen, 8));
    seen = _mm_or_si128(seen, _mm_srli_si128(seen, 4));
    seen = _mm_or_si128(seen, _mm_srli_si128(seen, 2));
    return static_cast<Symbol>(_mm_cvtsi128_si32(seen));
}

void
transposeBytesSse2(const std::uint8_t *bytes, std::size_t nw,
                   unsigned planes, std::uint64_t *plane, std::size_t stride)
{
    for (std::size_t w = 0; w < nw; ++w) {
        const std::uint8_t *blk = bytes + w * bitsPerWord;
        const __m128i q0 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk));
        const __m128i q1 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk + 16));
        const __m128i q2 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk + 32));
        const __m128i q3 =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(blk + 48));
        for (unsigned b = 0; b < planes; ++b) {
            const __m128i bitv =
                _mm_set1_epi8(static_cast<char>(1u << b));
            const auto lanes = [bitv](__m128i q) {
                return static_cast<std::uint32_t>(_mm_movemask_epi8(
                    _mm_cmpeq_epi8(_mm_and_si128(q, bitv), bitv)));
            };
            plane[b * stride + w] =
                static_cast<std::uint64_t>(lanes(q0)) |
                (static_cast<std::uint64_t>(lanes(q1)) << 16) |
                (static_cast<std::uint64_t>(lanes(q2)) << 32) |
                (static_cast<std::uint64_t>(lanes(q3)) << 48);
        }
    }
}

void
eqSweepSse2(const std::uint64_t *plane, std::size_t stride, unsigned planes,
            Symbol c, std::uint64_t *out, std::size_t nw)
{
    const __m128i ones = _mm_set1_epi64x(-1);
    std::size_t w = 0;
    for (; w + 2 <= nw; w += 2) {
        __m128i acc = ones;
        for (unsigned b = 0; b < planes; ++b) {
            const __m128i p = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(plane + b * stride + w));
            acc = ((c >> b) & 1u) ? _mm_and_si128(acc, p)
                                  : _mm_andnot_si128(p, acc);
        }
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + w), acc);
    }
    eqSweepScalarRange(plane, stride, planes, c, out, w, nw);
}

void
andShiftedSse2(std::uint64_t *dst, const std::uint64_t *a,
               const std::uint64_t *src, std::size_t count, unsigned bs)
{
    std::size_t j = 0;
    if (bs == 0) {
        for (; j + 2 <= count; j += 2) {
            const __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + j));
            const __m128i av = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + j));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + j),
                             _mm_and_si128(av, v));
        }
    } else {
        for (; j + 2 <= count; j += 2) {
            const __m128i hi = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + j));
            const __m128i lo = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(src + j - 1));
            const __m128i v = _mm_or_si128(
                _mm_slli_epi64(hi, static_cast<int>(bs)),
                _mm_srli_epi64(lo, static_cast<int>(bitsPerWord - bs)));
            const __m128i av = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(a + j));
            _mm_storeu_si128(reinterpret_cast<__m128i *>(dst + j),
                             _mm_and_si128(av, v));
        }
    }
    andShiftedScalarRange(dst, a, src, bs, j, count);
}

// ---------------------------------------------------------------------
// AVX2 kernel operations (256-bit planes, 32-char compare + movemask
// transpose). Compiled with a target attribute so the TU builds on the
// baseline ISA; only called after __builtin_cpu_supports("avx2").
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) Symbol
narrowAvx2(const Symbol *s, std::size_t n, std::uint8_t *dst)
{
    if (n < 32)
        return narrowSse2(s, n, dst);
    // The last step overlaps the one before, as in narrowSse2.
    __m256i seen = _mm256_setzero_si256();
    for (std::size_t at = 0; at < n; at += 32) {
        const std::size_t i = std::min(at, n - 32);
        const __m256i a = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(s + i));
        const __m256i b = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(s + i + 16));
        seen = _mm256_or_si256(seen, _mm256_or_si256(a, b));
        // packus saturates (exact only when the OR fits in 8 bits) and
        // interleaves the two 128-bit lanes; the permute puts the 32
        // bytes back in text order.
        const __m256i p = _mm256_permute4x64_epi64(
            _mm256_packus_epi16(a, b), 0xD8);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + i), p);
    }
    __m128i half = _mm_or_si128(_mm256_castsi256_si128(seen),
                                _mm256_extracti128_si256(seen, 1));
    half = _mm_or_si128(half, _mm_srli_si128(half, 8));
    half = _mm_or_si128(half, _mm_srli_si128(half, 4));
    half = _mm_or_si128(half, _mm_srli_si128(half, 2));
    return static_cast<Symbol>(_mm_cvtsi128_si32(half));
}

__attribute__((target("avx2"))) void
transposeBytesAvx2(const std::uint8_t *bytes, std::size_t nw,
                   unsigned planes, std::uint64_t *plane, std::size_t stride)
{
    for (std::size_t w = 0; w < nw; ++w) {
        const std::uint8_t *blk = bytes + w * bitsPerWord;
        const __m256i lo =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(blk));
        const __m256i hi =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(blk + 32));
        for (unsigned b = 0; b < planes; ++b) {
            const __m256i bitv =
                _mm256_set1_epi8(static_cast<char>(1u << b));
            const std::uint32_t mLo =
                static_cast<std::uint32_t>(_mm256_movemask_epi8(
                    _mm256_cmpeq_epi8(_mm256_and_si256(lo, bitv), bitv)));
            const std::uint32_t mHi =
                static_cast<std::uint32_t>(_mm256_movemask_epi8(
                    _mm256_cmpeq_epi8(_mm256_and_si256(hi, bitv), bitv)));
            plane[b * stride + w] =
                static_cast<std::uint64_t>(mLo) |
                (static_cast<std::uint64_t>(mHi) << 32);
        }
    }
}

__attribute__((target("avx2"))) void
eqSweepAvx2(const std::uint64_t *plane, std::size_t stride, unsigned planes,
            Symbol c, std::uint64_t *out, std::size_t nw)
{
    const __m256i ones = _mm256_set1_epi64x(-1);
    std::size_t w = 0;
    for (; w + 4 <= nw; w += 4) {
        __m256i acc = ones;
        for (unsigned b = 0; b < planes; ++b) {
            const __m256i p = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(plane + b * stride + w));
            acc = ((c >> b) & 1u) ? _mm256_and_si256(acc, p)
                                  : _mm256_andnot_si256(p, acc);
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + w), acc);
    }
    eqSweepScalarRange(plane, stride, planes, c, out, w, nw);
}

__attribute__((target("avx2"))) void
andShiftedAvx2(std::uint64_t *dst, const std::uint64_t *a,
               const std::uint64_t *src, std::size_t count, unsigned bs)
{
    std::size_t j = 0;
    if (bs == 0) {
        for (; j + 4 <= count; j += 4) {
            const __m256i v = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + j));
            const __m256i av = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + j));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                                _mm256_and_si256(av, v));
        }
    } else {
        for (; j + 4 <= count; j += 4) {
            const __m256i hi = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + j));
            const __m256i lo = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(src + j - 1));
            const __m256i v = _mm256_or_si256(
                _mm256_slli_epi64(hi, static_cast<int>(bs)),
                _mm256_srli_epi64(lo, static_cast<int>(bitsPerWord - bs)));
            const __m256i av = _mm256_loadu_si256(
                reinterpret_cast<const __m256i *>(a + j));
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(dst + j),
                                _mm256_and_si256(av, v));
        }
    }
    andShiftedScalarRange(dst, a, src, bs, j, count);
}

#endif // SPM_SIMD_X86

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

} // namespace

namespace detail
{

struct KernelOps {
    Symbol (*narrow)(const Symbol *, std::size_t, std::uint8_t *);
    void (*transposeBytes)(const std::uint8_t *, std::size_t, unsigned,
                           std::uint64_t *, std::size_t);
    void (*eqSweep)(const std::uint64_t *, std::size_t, unsigned, Symbol,
                    std::uint64_t *, std::size_t);
    void (*andShifted)(std::uint64_t *, const std::uint64_t *,
                       const std::uint64_t *, std::size_t, unsigned);
};

} // namespace detail

namespace
{

using detail::KernelOps;

constexpr KernelOps scalarOps = {narrowScalar, transposeBytesScalar,
                                 eqSweepScalar, andShiftedScalar};
#if SPM_SIMD_X86
constexpr KernelOps sse2Ops = {narrowSse2, transposeBytesSse2, eqSweepSse2,
                               andShiftedSse2};
constexpr KernelOps avx2Ops = {narrowAvx2, transposeBytesAvx2, eqSweepAvx2,
                               andShiftedAvx2};
#endif

const KernelOps &
opsFor(SimdIsa isa)
{
#if SPM_SIMD_X86
    if (isa == SimdIsa::Avx2)
        return avx2Ops;
    if (isa == SimdIsa::Sse2)
        return sse2Ops;
#endif
    (void)isa;
    return scalarOps;
}

SimdIsa
detectBest()
{
    SimdIsa best = SimdIsa::Scalar;
    if (simdIsaSupported(SimdIsa::Sse2))
        best = SimdIsa::Sse2;
    if (simdIsaSupported(SimdIsa::Avx2))
        best = SimdIsa::Avx2;
    if (const char *env = std::getenv("SPM_SIMD_ISA")) {
        const std::string cap(env);
        SimdIsa capped = best;
        if (cap == "scalar")
            capped = SimdIsa::Scalar;
        else if (cap == "sse2")
            capped = SimdIsa::Sse2;
        else if (cap == "avx2")
            capped = SimdIsa::Avx2;
        if (static_cast<unsigned>(capped) < static_cast<unsigned>(best))
            best = capped;
    }
    return best;
}

} // namespace

const char *
simdIsaName(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Sse2:
        return "sse2";
    case SimdIsa::Avx2:
        return "avx2";
    case SimdIsa::Scalar:
        break;
    }
    return "scalar";
}

bool
simdIsaSupported(SimdIsa isa)
{
    switch (isa) {
    case SimdIsa::Scalar:
        return true;
    case SimdIsa::Sse2:
        return SPM_SIMD_X86 != 0;
    case SimdIsa::Avx2:
#if SPM_SIMD_X86
        return __builtin_cpu_supports("avx2") != 0;
#else
        return false;
#endif
    }
    return false;
}

SimdIsa
bestSimdIsa()
{
    static const SimdIsa best = detectBest();
    return best;
}

void
splitWide(const Symbol *s, std::size_t n, std::uint8_t *lo, std::uint8_t *hi)
{
    for (std::size_t i = 0; i < n; ++i) {
        lo[i] = static_cast<std::uint8_t>(s[i]);
        hi[i] = static_cast<std::uint8_t>(s[i] >> 8);
    }
}

SimdOps::SimdOps(SimdIsa isa) : ops(&opsFor(isa)) {}

Symbol
SimdOps::narrow(const Symbol *s, std::size_t n, std::uint8_t *dst) const
{
    return ops->narrow(s, n, dst);
}

Symbol
SimdOps::stage(std::span<const Symbol> text,
               std::vector<std::uint8_t> &bytes) const
{
    const std::size_t n = text.size();
    const std::size_t padded = wordCount(n) * bitsPerWord;
    if (bytes.size() < padded)
        bytes.resize(padded);
    const Symbol seen = ops->narrow(text.data(), n, bytes.data());
    std::fill(bytes.data() + n, bytes.data() + padded, std::uint8_t(0));
    if (seen > 0xFF) {
        if (bytes.size() < 2 * padded)
            bytes.resize(2 * padded);
        splitWide(text.data(), n, bytes.data(), bytes.data() + padded);
        std::fill(bytes.data() + padded + n, bytes.data() + 2 * padded,
                  std::uint8_t(0));
    }
    return seen;
}

unsigned
SimdOps::transpose(const std::uint8_t *lo, const std::uint8_t *hi,
                   std::size_t nw, Symbol text_or, Symbol also_seen,
                   std::vector<std::uint64_t> &plane) const
{
    // Compare + movemask on bytes, 16 or 32 characters per
    // instruction: the low byte's planes, then the high byte's.
    const unsigned planes = widthOf(static_cast<Symbol>(text_or | also_seen));
    if (plane.size() < planes * nw)
        plane.resize(planes * nw);
    ops->transposeBytes(lo, nw, std::min(planes, 8u), plane.data(), nw);
    if (planes <= 8)
        return planes;
    std::uint64_t *upper = plane.data() + 8 * nw;
    if (text_or > 0xFF)
        ops->transposeBytes(hi, nw, planes - 8, upper, nw);
    else
        std::fill(upper, upper + (planes - 8) * nw, std::uint64_t(0));
    return planes;
}

void
SimdOps::eqMask(const std::uint64_t *plane, std::size_t stride,
                unsigned planes, Symbol c, std::uint64_t *out,
                std::size_t nw) const
{
    ops->eqSweep(plane, stride, planes, c, out, nw);
}

void
SimdOps::andShifted(std::uint64_t *dst, const std::uint64_t *a,
                    const std::uint64_t *src, std::size_t count,
                    unsigned bs) const
{
    ops->andShifted(dst, a, src, count, bs);
}

SimdParallelMatcher::SimdParallelMatcher() : tier(bestSimdIsa()) {}

SimdParallelMatcher::SimdParallelMatcher(SimdIsa forced)
    : tier(forced), forcedTier(true)
{
    while (!simdIsaSupported(tier))
        tier = (tier == SimdIsa::Avx2) ? SimdIsa::Sse2 : SimdIsa::Scalar;
}

std::string
SimdParallelMatcher::name() const
{
    if (forcedTier)
        return std::string("simd-parallel-") + simdIsaName(tier);
    return "simd-parallel";
}

const std::vector<std::uint64_t> &
SimdParallelMatcher::matchPacked(std::span<const Symbol> text,
                                 std::span<const Symbol> pattern)
{
    const Symbol seen = SimdOps(tier).stage(text, byteText);
    return matchBytes(byteText.data(),
                      byteText.data() + wordCount(text.size()) * bitsPerWord,
                      text.size(), seen, pattern);
}

const std::vector<std::uint64_t> &
SimdParallelMatcher::matchBytes(const std::uint8_t *lo,
                                const std::uint8_t *hi, std::size_t n,
                                Symbol text_or,
                                std::span<const Symbol> pattern)
{
    const std::size_t k = pattern.size();
    const std::size_t nw = wordCount(n);
    wordOps = 0;
    planesBuilt = 0;
    usedShortPath = false;

    result.assign(nw, 0);
    if (k == 0 || n == 0 || k > n)
        return result;

    // The planes must cover every bit that can distinguish a text
    // character from a pattern character.
    Symbol patternBits = 0;
    for (Symbol c : pattern)
        if (c != wildcardSymbol)
            patternBits = static_cast<Symbol>(patternBits | c);
    // The pad past the text in the last word transposes as well; its
    // result bits are masked off below.
    const SimdOps ops(tier);
    const unsigned planes =
        ops.transpose(lo, hi, nw, text_or, patternBits, planeArena);
    planesBuilt = planes;
    wordOps += static_cast<std::uint64_t>(planes) * nw;

    if (k <= bitsPerWord) {
        // Short-pattern fused recurrence: every shift distance is
        // under one word, so the whole product
        //     r = AND_j shiftUp(eq(p_j), k-1-j)
        // folds into a single pass -- each plane word is loaded once,
        // each distinct symbol's equality word is formed in registers,
        // and the only cross-word state is the previous equality word
        // per symbol (the shifted-in history).
        usedShortPath = true;
        Symbol psym[bitsPerWord];
        unsigned pshift[bitsPerWord];
        std::size_t nPos = 0;
        for (std::size_t j = 0; j < k; ++j) {
            const Symbol c = pattern[j];
            if (c == wildcardSymbol)
                continue;
            const unsigned s = static_cast<unsigned>((k - 1) - j);
            std::size_t p = nPos;
            while (p > 0 && psym[p - 1] > c) {
                psym[p] = psym[p - 1];
                pshift[p] = pshift[p - 1];
                --p;
            }
            psym[p] = c;
            pshift[p] = s;
            ++nPos;
        }
        // Only the first nGroups (<= nPos) entries are read: zeroing
        // those, not all 64, is most of a one-word text's fixed cost.
        std::uint64_t prevEq[bitsPerWord];
        std::fill(prevEq, prevEq + nPos, std::uint64_t(0));
        const std::uint64_t *pl = planeArena.data();
        for (std::size_t w = 0; w < nw; ++w) {
            std::uint64_t acc = ~std::uint64_t(0);
            std::size_t idx = 0;
            std::size_t g = 0;
            while (idx < nPos) {
                const Symbol c = psym[idx];
                std::uint64_t eq = ~std::uint64_t(0);
                for (unsigned b = 0; b < planes; ++b) {
                    const std::uint64_t p = pl[b * nw + w];
                    eq &= ((c >> b) & 1u) ? p : ~p;
                }
                const std::uint64_t prev = prevEq[g];
                do {
                    const unsigned s = pshift[idx];
                    acc &= s != 0
                               ? ((eq << s) | (prev >> (bitsPerWord - s)))
                               : eq;
                    ++idx;
                } while (idx < nPos && psym[idx] == c);
                prevEq[g] = eq;
                ++g;
            }
            result[w] = acc;
        }
        std::size_t nGroups = 0;
        for (std::size_t i = 0; i < nPos; ++i)
            if (i == 0 || psym[i] != psym[i - 1])
                ++nGroups;
        wordOps += nw * (static_cast<std::uint64_t>(nGroups) * planes +
                         nPos);
    } else {
        // Long patterns take the sweep organization -- equality
        // masks cached per distinct symbol, one shifted AND sweep per
        // non-wild pattern position -- with the sweeps vectorized.
        std::fill(result.begin(), result.end(), ~std::uint64_t(0));
        eqIndex.clear();
        for (Symbol c : pattern) {
            if (c == wildcardSymbol)
                continue;
            bool known = false;
            for (const auto &e : eqIndex)
                if (e.first == c) {
                    known = true;
                    break;
                }
            if (!known)
                eqIndex.emplace_back(c, eqIndex.size() * nw);
        }
        if (eqArena.size() < eqIndex.size() * nw)
            eqArena.resize(eqIndex.size() * nw);
        for (const auto &e : eqIndex) {
            ops.eqMask(planeArena.data(), nw, planes, e.first,
                       eqArena.data() + e.second, nw);
            wordOps += static_cast<std::uint64_t>(planes) * nw;
        }
        for (std::size_t j = 0; j < k; ++j) {
            const Symbol c = pattern[j];
            if (c == wildcardSymbol)
                continue;
            const std::uint64_t *m = nullptr;
            for (const auto &e : eqIndex)
                if (e.first == c) {
                    m = eqArena.data() + e.second;
                    break;
                }
            // Words below ws see only the empty history before the
            // text, and word ws has no lower word to borrow from.
            const std::size_t s = (k - 1) - j;
            const std::size_t ws = s / bitsPerWord;
            const unsigned bs = static_cast<unsigned>(s % bitsPerWord);
            std::fill(result.begin(),
                      result.begin() +
                          static_cast<std::ptrdiff_t>(std::min(ws, nw)),
                      0);
            if (ws < nw) {
                result[ws] &= m[0] << bs;
                ops.andShifted(result.data() + ws + 1,
                               result.data() + ws + 1, m + 1,
                               nw - ws - 1, bs);
            }
            wordOps += nw;
        }
    }

    // Positions with incomplete substrings (i < k-1) are 0 by
    // definition, as is the slack past the text in the last word.
    const std::size_t lead = k - 1;
    for (std::size_t w = 0; w < lead / bitsPerWord && w < nw; ++w)
        result[w] = 0;
    if (lead / bitsPerWord < nw && lead % bitsPerWord != 0)
        result[lead / bitsPerWord] &= ~std::uint64_t(0)
                                      << (lead % bitsPerWord);
    if (n % bitsPerWord != 0)
        result[nw - 1] &=
            ~std::uint64_t(0) >> (bitsPerWord - n % bitsPerWord);
    return result;
}

BitVec
SimdParallelMatcher::match(std::span<const Symbol> text,
                           std::span<const Symbol> pattern)
{
    return unpackResultBits(matchPacked(text, pattern), text.size());
}

std::size_t
SimdParallelMatcher::arenaBytes() const
{
    return byteText.capacity() * sizeof(std::uint8_t) +
           (planeArena.capacity() + eqArena.capacity() +
            result.capacity()) *
               sizeof(std::uint64_t) +
           eqIndex.capacity() * sizeof(eqIndex[0]);
}

BitVec
unpackResultBits(const std::vector<std::uint64_t> &packed, std::size_t n)
{
    BitVec out;
    out.append(packed, 0, n);
    return out;
}

} // namespace spm::core
