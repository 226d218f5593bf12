#include "core/batch.hh"

#include <algorithm>

namespace spm::core
{

namespace
{

constexpr std::size_t bitsPerWord = 64;

std::size_t
wholeWords(std::size_t chars)
{
    return (chars + bitsPerWord - 1) / bitsPerWord * bitsPerWord;
}

} // namespace

BatchMatcher::BatchMatcher() : ops(simd.isa()) {}

BatchMatcher::BatchMatcher(SimdIsa forced) : simd(forced), ops(simd.isa()) {}

void
BatchMatcher::layout(std::span<const std::size_t> chars)
{
    regions.resize(chars.size());
    std::size_t at = 0;
    for (std::size_t g = 0; g < chars.size(); ++g) {
        regions[g] = {at, wholeWords(chars[g]), at, 0};
        at += regions[g].room;
    }
    if (arena.size() < at)
        arena.resize(at);
}

Symbol
BatchMatcher::stage(std::size_t g, std::span<const Symbol> text)
{
    return ops.narrow(text.data(), text.size(), arena.data() + regions[g].end);
}

void
BatchMatcher::keep(std::size_t g, std::span<const Symbol> text,
                   Symbol text_or)
{
    Region &r = regions[g];
    if (text_or > 0xFF) {
        // The group's first wide text zeroes its high bytes, so the
        // narrow texts around it read as high byte 0.
        if (r.seen <= 0xFF) {
            if (high.size() < arena.size())
                high.resize(arena.size());
            std::fill(high.data() + r.base, high.data() + r.base + r.room,
                      std::uint8_t(0));
        }
        splitWide(text.data(), text.size(), arena.data() + r.end,
                  high.data() + r.end);
    }
    r.end += text.size();
    r.seen = static_cast<Symbol>(r.seen | text_or);
}

const std::vector<std::uint64_t> &
BatchMatcher::pass(std::size_t g, std::span<const Symbol> pattern)
{
    // The pad up to the word boundary may hold a discarded text's
    // bytes; zeroed, the pass reads the same planes every time.
    const Region &r = regions[g];
    kernelChars = r.end - r.base;
    std::fill(arena.data() + r.end, arena.data() + r.base +
                                        wholeWords(kernelChars),
              std::uint8_t(0));
    return simd.matchBytes(arena.data() + r.base,
                           r.seen > 0xFF ? high.data() + r.base : nullptr,
                           kernelChars, r.seen, pattern);
}

BitVec
BatchMatcher::row(const std::vector<std::uint64_t> &packed, std::size_t at,
                  std::size_t len, std::size_t k)
{
    // Warm-up as a mask: a text keeps nothing before position k-1, so
    // its row is its span of the packed stream, copied a word at a
    // time, with those bits cleared. No neighbour's bit leaks in.
    BitVec out;
    out.append(packed, at, len);
    out.clearPrefix(std::min(len, k == 0 ? 0 : k - 1));
    return out;
}

std::vector<BitVec>
BatchMatcher::matchMany(
    const std::vector<const std::vector<Symbol> *> &streams,
    std::span<const Symbol> pattern)
{
    std::size_t total = 0;
    for (const std::vector<Symbol> *s : streams)
        total += s->size();
    layout({&total, 1});
    for (const std::vector<Symbol> *s : streams)
        keep(0, *s, stage(0, *s));
    const std::vector<std::uint64_t> &packed = pass(0, pattern);
    std::vector<BitVec> out;
    out.reserve(streams.size());
    std::size_t at = 0;
    for (const std::vector<Symbol> *s : streams) {
        out.push_back(row(packed, at, s->size(), pattern.size()));
        at += s->size();
    }
    return out;
}

} // namespace spm::core
