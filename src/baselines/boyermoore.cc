#include "baselines/boyermoore.hh"

#include <algorithm>
#include <map>

#include "util/logging.hh"

namespace spm::baselines
{

namespace
{

/** Bad-character rule: last occurrence of each symbol in the pattern. */
std::map<Symbol, std::size_t>
badCharTable(std::span<const Symbol> pattern)
{
    std::map<Symbol, std::size_t> last;
    for (std::size_t j = 0; j < pattern.size(); ++j)
        last[pattern[j]] = j;
    return last;
}

/**
 * Good-suffix rule shifts, via the standard two-pass border
 * computation (Knuth et al. 77 formulation).
 */
std::vector<std::size_t>
goodSuffixTable(std::span<const Symbol> pattern)
{
    const std::size_t len = pattern.size();
    std::vector<std::size_t> shift(len + 1, 0);
    std::vector<std::size_t> border(len + 1, 0);

    // Pass 1: borders of suffixes.
    std::size_t i = len;
    std::size_t j = len + 1;
    border[i] = j;
    while (i > 0) {
        while (j <= len && pattern[i - 1] != pattern[j - 1]) {
            if (shift[j] == 0)
                shift[j] = j - i;
            j = border[j];
        }
        --i;
        --j;
        border[i] = j;
    }

    // Pass 2: fill remaining shifts from the widest border.
    j = border[0];
    for (i = 0; i <= len; ++i) {
        if (shift[i] == 0)
            shift[i] = j;
        if (i == j)
            j = border[j];
    }
    return shift;
}

} // namespace

BitVec
BoyerMooreMatcher::match(std::span<const Symbol> text,
                         std::span<const Symbol> pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    comparisons = 0;
    BitVec r(n);
    if (len == 0 || len > n)
        return r;

    for (Symbol p : pattern) {
        if (p == wildcardSymbol)
            spm_fatal("Boyer-Moore cannot handle wild card patterns "
                      "(Section 3.1)");
    }

    const auto bad = badCharTable(pattern);
    const auto good = goodSuffixTable(pattern);

    std::size_t start = 0;
    while (start + len <= n) {
        std::size_t j = len;
        while (j > 0) {
            ++comparisons;
            if (pattern[j - 1] != text[start + j - 1])
                break;
            --j;
        }
        if (j == 0) {
            r.set(start + len - 1, true);
            start += good[0];
        } else {
            const Symbol mismatched = text[start + j - 1];
            const auto it = bad.find(mismatched);
            const std::size_t last_at =
                it == bad.end() ? 0 : it->second + 1;
            const std::size_t bc_shift =
                j > last_at ? j - last_at : 1;
            start += std::max(good[j], bc_shift);
        }
    }
    return r;
}

} // namespace spm::baselines
