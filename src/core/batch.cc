#include "core/batch.hh"

#include <algorithm>

namespace spm::core
{

BatchMatcher::BatchMatcher() = default;

BatchMatcher::BatchMatcher(SimdIsa forced) : simd(forced) {}

std::vector<BitVec>
BatchMatcher::matchMany(
    const std::vector<const std::vector<Symbol> *> &streams,
    std::span<const Symbol> pattern)
{
    // Pack the streams end to end. Positions inside a stream's first
    // k-1 characters fall before its start offset below, so the
    // kernel's cross-stream reads there are never sliced out.
    const std::size_t width = streams.size();
    const std::size_t k = pattern.size();
    const std::size_t hist = k == 0 ? 0 : k - 1;
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
    // position k-1, so its row is that many zeros and then its own
    // span of the packed stream, copied a word at a time. A
    // neighbour's bits never leak in past either edge. Each row is
    // allocated once, at its final size.
    std::vector<BitVec> out(width);
    for (std::size_t i = 0; i < width; ++i) {
        const std::size_t len = streams[i]->size();
        const std::size_t first = std::min(len, hist);
        out[i].reserve(len);
        out[i].resize(first);
        out[i].append(packed, segBase[i] + first, len - first);
    }
    return out;
}

} // namespace spm::core
