#include "multipattern/dict.hh"

#include <algorithm>

#include "core/reference.hh"

namespace spm::multipattern
{

std::uint64_t
DictHits::totalHits() const
{
    std::uint64_t total = 0;
    for (const BitVec &row : bits)
        total += row.popcount();
    return total;
}

std::size_t
longestPattern(const DictPatterns &dict)
{
    std::size_t kmax = 0;
    for (const auto &p : dict)
        kmax = std::max(kmax, p.size());
    return kmax;
}

DictHits
NaiveDictMatcher::matchAll(const std::vector<Symbol> &text,
                           const DictPatterns &dict)
{
    core::ReferenceMatcher ref;
    DictHits hits;
    hits.bits.reserve(dict.size());
    for (const auto &pattern : dict)
        hits.bits.push_back(ref.match(text, pattern));
    return hits;
}

} // namespace spm::multipattern
