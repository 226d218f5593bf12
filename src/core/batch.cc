#include "core/batch.hh"

#include <algorithm>

namespace spm::core
{

BatchMatcher::BatchMatcher() = default;

BatchMatcher::BatchMatcher(SimdIsa forced) : simd(forced) {}

std::vector<std::vector<bool>>
BatchMatcher::matchMany(const std::vector<std::vector<Symbol>> &streams,
                        const std::vector<Symbol> &pattern)
{
    std::vector<const std::vector<Symbol> *> ptrs;
    ptrs.reserve(streams.size());
    for (const std::vector<Symbol> &s : streams)
        ptrs.push_back(&s);
    return matchMany(ptrs, pattern);
}

std::vector<std::vector<bool>>
BatchMatcher::matchMany(
    const std::vector<const std::vector<Symbol> *> &streams,
    const std::vector<Symbol> &pattern)
{
    // Pack the streams end to end. Positions inside a stream's first
    // k-1 characters fall before its start offset below, so the
    // kernel's cross-stream reads there are never sliced out.
    const std::size_t width = streams.size();
    const std::size_t k = pattern.size();
    const std::size_t hist = k == 0 ? 0 : k - 1;
    batchWidth = width;
    std::size_t total = 0;
    for (const std::vector<Symbol> *s : streams)
        total += s->size();
    concat.clear();
    concat.reserve(total);
    segBase.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
        segBase[i] = concat.size();
        concat.insert(concat.end(), streams[i]->begin(), streams[i]->end());
    }
    kernelChars = concat.size();
    const std::vector<std::uint64_t> &packed =
        simd.matchPacked(concat, pattern);

    // Warm-up as a start offset: a stream keeps nothing before
    // position k-1.
    std::vector<std::vector<bool>> out(width);
    for (std::size_t i = 0; i < width; ++i) {
        const std::size_t len = streams[i]->size();
        sliceResultBits(packed, segBase[i], std::min(len, hist), len,
                        out[i]);
    }
    return out;
}

} // namespace spm::core
