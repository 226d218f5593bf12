#include "baselines/kmp.hh"

#include "util/logging.hh"

namespace spm::baselines
{

std::vector<std::size_t>
KmpMatcher::failureFunction(std::span<const Symbol> pattern)
{
    const std::size_t len = pattern.size();
    std::vector<std::size_t> fail(len, 0);
    std::size_t k = 0;
    for (std::size_t i = 1; i < len; ++i) {
        while (k > 0 && pattern[k] != pattern[i])
            k = fail[k - 1];
        if (pattern[k] == pattern[i])
            ++k;
        fail[i] = k;
    }
    return fail;
}

BitVec
KmpMatcher::match(std::span<const Symbol> text,
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
            spm_fatal("KMP cannot handle wild card patterns "
                      "(Section 3.1: the matches relation is not "
                      "transitive)");
    }

    const std::vector<std::size_t> fail = failureFunction(pattern);
    std::size_t q = 0;
    for (std::size_t i = 0; i < n; ++i) {
        while (q > 0 && pattern[q] != text[i]) {
            ++comparisons;
            q = fail[q - 1];
        }
        ++comparisons;
        if (pattern[q] == text[i])
            ++q;
        if (q == len) {
            r.set(i, true);
            q = fail[q - 1];
        }
    }
    return r;
}

} // namespace spm::baselines
