#include "core/multipass.hh"

#include <algorithm>

#include "core/behavioral.hh"
#include "util/logging.hh"

namespace spm::core
{

namespace
{

/**
 * One non-recirculating run: the whole pattern streams once through a
 * fresh array of @p m cells while text characters starting at global
 * index @p base stream the other way. Each cell accumulates exactly
 * one substring, so the run resolves result bits for substring starts
 * in [base, base + m).
 */
void
runOnce(std::size_t m, std::span<const Symbol> pattern,
        std::span<const Symbol> text, std::size_t base,
        BitVec &result, Beat &beats)
{
    const std::size_t K = pattern.size();
    const std::size_t n = text.size();
    const unsigned phi = (m - 1) % 2;
    const Beat c0 = (m - 1 + phi) / 2;

    // Feeding the pattern 2*c0 beats late shifts every meeting c0
    // cells left, so the run's first resolved substring start lands
    // in cell 0 and none of the array is wasted.
    const Beat pat_offset = 2 * c0;

    // Text characters needed by this run: the m substring starts plus
    // the pattern-length tail of the last one.
    const std::size_t text_end = std::min(n, base + m + K - 1);

    BehavioralChip chip(m);
    const Beat total =
        2 * static_cast<Beat>(m + K + c0) + static_cast<Beat>(m) + 8;

    std::size_t exited = 0; // text characters whose r slot has exited
    for (Beat u = 0; u < total; ++u) {
        // Pattern: one copy only, no recirculation.
        PatToken p{};
        CtlToken ctl{};
        if (u >= pat_offset && (u - pat_offset) % 2 == 0) {
            const auto j = static_cast<std::size_t>((u - pat_offset) / 2);
            if (j < K) {
                const Symbol sym = pattern[j];
                p = PatToken{sym == wildcardSymbol ? Symbol(0) : sym,
                             true};
            }
        }
        if (u >= pat_offset + 1 && (u - pat_offset - 1) % 2 == 0) {
            const auto j =
                static_cast<std::size_t>((u - pat_offset - 1) / 2);
            if (j < K) {
                ctl.lambda = j == K - 1;
                ctl.x = pattern[j] == wildcardSymbol;
                ctl.valid = true;
            }
        }

        StrToken s{};
        if (u >= phi && (u - phi) % 2 == 0) {
            const std::size_t i =
                base + static_cast<std::size_t>((u - phi) / 2);
            if (i < text_end)
                s = StrToken{text[i], true};
        }
        ResToken r{};
        if (u >= phi + 1 && (u - phi - 1) % 2 == 0) {
            const std::size_t i =
                base + static_cast<std::size_t>((u - phi - 1) / 2);
            if (i < text_end)
                r = ResToken{false, true};
        }

        chip.feedPattern(p);
        chip.feedControl(ctl);
        chip.feedString(s);
        chip.feedResult(r);
        chip.step();
        ++beats;

        const ResToken out = chip.resultOut();
        if (out.valid) {
            const std::size_t i = base + exited; // text index of slot
            ++exited;
            // The slot carries a resolved bit only when its substring
            // start lies in this run's coverage window.
            if (i + 1 >= K) {
                const std::size_t i0 = i + 1 - K;
                if (i0 >= base && i0 < base + m && i < n)
                    result.set(i, out.value);
            }
        }
        if (exited >= text_end - base)
            break;
    }
    spm_assert(exited == text_end - base, "multipass run lost ",
               text_end - base - exited, " result slots");
}

} // namespace

BitVec
MultipassMatcher::match(std::span<const Symbol> text,
                        std::span<const Symbol> pattern)
{
    const std::size_t n = text.size();
    const std::size_t K = pattern.size();
    BitVec result(n);
    runsUsed = 0;
    beatsUsed = 0;
    if (K == 0 || n == 0 || K > n)
        return result;

    spm_assert(cells > 0, "multipass needs at least one cell");

    // Substring starts to cover: 0 .. n-K, in windows of `cells`.
    const std::size_t starts = n - K + 1;
    for (std::size_t base = 0; base < starts; base += cells) {
        runOnce(cells, pattern, text, base, result, beatsUsed);
        ++runsUsed;
    }
    return result;
}

} // namespace spm::core
