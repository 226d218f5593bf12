#include "core/batch.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

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
    // Every stream starts fresh: no tail to re-feed, nothing seen.
    return pass(streams, pattern, nullptr);
}

std::vector<std::vector<bool>>
BatchMatcher::feedChunks(std::vector<StreamCarry> &carries,
                         const std::vector<std::vector<Symbol>> &chunks,
                         const std::vector<Symbol> &pattern)
{
    std::vector<const std::vector<Symbol> *> ptrs;
    ptrs.reserve(chunks.size());
    for (const std::vector<Symbol> &c : chunks)
        ptrs.push_back(&c);
    return feedChunks(carries, ptrs, pattern);
}

std::vector<std::vector<bool>>
BatchMatcher::feedChunks(
    std::vector<StreamCarry> &carries,
    const std::vector<const std::vector<Symbol> *> &chunks,
    const std::vector<Symbol> &pattern)
{
    if (carries.size() != chunks.size())
        throw std::invalid_argument(
            "BatchMatcher: " + std::to_string(carries.size()) +
            " carries for " + std::to_string(chunks.size()) + " chunks");
    const std::size_t k = pattern.size();
    const std::size_t hist = k == 0 ? 0 : k - 1;
    for (const StreamCarry &carry : carries)
        if (carry.seen != 0 && carry.patternLen != k)
            throw std::invalid_argument(
                "BatchMatcher: carry fed with pattern length " +
                std::to_string(carry.patternLen) +
                " reused with length " + std::to_string(k));

    std::vector<std::vector<bool>> out = pass(chunks, pattern, &carries);

    // Advance every carry: keep the last min(k-1, seen) characters.
    for (std::size_t i = 0; i < chunks.size(); ++i) {
        const std::vector<Symbol> &chunk = *chunks[i];
        const std::size_t len = chunk.size();
        StreamCarry &carry = carries[i];
        carry.seen += len;
        carry.patternLen = k;
        const std::size_t need = static_cast<std::size_t>(
            std::min<std::uint64_t>(hist, carry.seen));
        if (len >= need) {
            carry.tail.assign(
                chunk.end() - static_cast<std::ptrdiff_t>(need),
                chunk.end());
        } else {
            const std::size_t from_tail = need - len;
            carry.tail.erase(carry.tail.begin(),
                             carry.tail.end() -
                                 static_cast<std::ptrdiff_t>(from_tail));
            carry.tail.insert(carry.tail.end(), chunk.begin(),
                              chunk.end());
        }
    }
    return out;
}

std::vector<std::vector<bool>>
BatchMatcher::pass(const std::vector<const std::vector<Symbol> *> &chunks,
                   const std::vector<Symbol> &pattern,
                   const std::vector<StreamCarry> *carries)
{
    // Pack carry tail + chunk per stream, end to end. The tail gives
    // every kept position its full look-back window; positions still
    // inside a stream's first k-1 characters fall before the lane's
    // start offset below, so the kernel's cross-stream reads there
    // are never sliced out.
    const std::size_t width = chunks.size();
    const std::size_t k = pattern.size();
    const std::size_t hist = k == 0 ? 0 : k - 1;
    batchWidth = width;
    std::size_t total = 0;
    for (std::size_t i = 0; i < width; ++i)
        total += (carries ? (*carries)[i].tail.size() : 0) +
                 chunks[i]->size();
    concat.clear();
    concat.reserve(total);
    segBase.resize(width);
    for (std::size_t i = 0; i < width; ++i) {
        if (carries) {
            const std::vector<Symbol> &tail = (*carries)[i].tail;
            concat.insert(concat.end(), tail.begin(), tail.end());
        }
        segBase[i] = concat.size();
        concat.insert(concat.end(), chunks[i]->begin(), chunks[i]->end());
    }
    kernelChars = concat.size();
    const std::vector<std::uint64_t> &packed =
        simd.matchPacked(concat, pattern);

    // Warm-up as a start offset: a stream that has seen fewer than
    // k-1 characters keeps nothing before position k-1-seen.
    std::vector<std::vector<bool>> out(width);
    for (std::size_t i = 0; i < width; ++i) {
        const std::size_t len = chunks[i]->size();
        const std::uint64_t seen = carries ? (*carries)[i].seen : 0;
        const std::size_t first =
            seen >= hist ? 0
                         : std::min<std::size_t>(
                               len, hist - static_cast<std::size_t>(seen));
        sliceResultBits(packed, segBase[i], first, len, out[i]);
    }
    return out;
}

} // namespace spm::core
