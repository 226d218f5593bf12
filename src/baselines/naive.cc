#include "baselines/naive.hh"

#include "core/reference.hh"

namespace spm::baselines
{

BitVec
NaiveMatcher::match(const std::vector<Symbol> &text,
                    const std::vector<Symbol> &pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    comparisons = 0;
    BitVec r(n);
    if (len == 0 || len > n)
        return r;

    for (std::size_t start = 0; start + len <= n; ++start) {
        bool all = true;
        for (std::size_t j = 0; j < len; ++j) {
            ++comparisons;
            if (!core::symbolMatches(pattern[j], text[start + j])) {
                all = false;
                break;
            }
        }
        if (all)
            r.set(start + len - 1, true);
    }
    return r;
}

} // namespace spm::baselines
