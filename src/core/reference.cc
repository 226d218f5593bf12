#include "core/reference.hh"

namespace spm::core
{

BitVec
ReferenceMatcher::match(std::span<const Symbol> text,
                        std::span<const Symbol> pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    BitVec r(n);
    if (len == 0 || len > n)
        return r;

    for (std::size_t i = len - 1; i < n; ++i) {
        bool all = true;
        for (std::size_t j = 0; j < len && all; ++j)
            all = symbolMatches(pattern[j], text[i - (len - 1) + j]);
        r.set(i, all);
    }
    return r;
}

std::vector<unsigned>
referenceMatchCounts(std::span<const Symbol> text,
                     std::span<const Symbol> pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    std::vector<unsigned> c(n, 0);
    if (len == 0 || len > n)
        return c;

    for (std::size_t i = len - 1; i < n; ++i) {
        unsigned count = 0;
        for (std::size_t j = 0; j < len; ++j) {
            if (symbolMatches(pattern[j], text[i - (len - 1) + j]))
                ++count;
        }
        c[i] = count;
    }
    return c;
}

std::vector<std::int64_t>
referenceCorrelation(const std::vector<std::int64_t> &text,
                     const std::vector<std::int64_t> &pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    std::vector<std::int64_t> r(n, 0);
    if (len == 0 || len > n)
        return r;

    for (std::size_t i = len - 1; i < n; ++i) {
        std::int64_t sum = 0;
        for (std::size_t j = 0; j < len; ++j) {
            const std::int64_t d =
                text[i - (len - 1) + j] - pattern[j];
            sum += d * d;
        }
        r[i] = sum;
    }
    return r;
}

} // namespace spm::core
