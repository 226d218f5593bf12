#include "conformance/mutants.hh"

#include <algorithm>
#include <cstdint>

#include "conformance/oracles.hh"
#include "core/behavioral.hh"
#include "core/reference.hh"
#include "core/simdpar.hh"
#include "util/strings.hh"

namespace spm::conformance
{

namespace
{

/**
 * Seeded bug: the sharded stitcher reserves an overlap of k-2 text
 * characters before each shard boundary instead of k-1, so a match
 * whose window begins exactly k-1 characters before a boundary -- one
 * that ends on the first character of the next shard -- is lost.
 */
class MutShardOverlap : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        const std::size_t n = text.size();
        const std::size_t k = pattern.size();
        BitVec result(n);
        if (k == 0 || n == 0 || k > n)
            return result;

        const std::size_t nshards = 2;
        const std::size_t overlap = k >= 2 ? k - 2 : 0; // BUG: k-1
        core::SimdParallelMatcher inner(core::SimdIsa::Scalar);
        for (std::size_t s = 0; s < nshards; ++s) {
            const std::size_t start = n * s / nshards;
            const std::size_t end = n * (s + 1) / nshards;
            if (start >= end)
                continue;
            const std::size_t ws = std::min(start, overlap);
            const std::vector<Symbol> sub(
                text.begin() +
                    static_cast<std::ptrdiff_t>(start - ws),
                text.begin() + static_cast<std::ptrdiff_t>(end));
            if (sub.size() < k)
                continue;
            const BitVec bits = inner.match(sub, pattern);
            for (std::size_t i = ws; i < bits.size(); ++i)
                if (bits.get(i))
                    result.set(start - ws + i, true);
        }
        return result;
    }

    std::string name() const override { return "mut-shard-overlap"; }
};

/**
 * Seeded bug: the bit-sliced kernel's wildcard plane is dropped;
 * wildcardSymbol is compared like an ordinary stored character, so a
 * wildcard position never matches anything.
 */
class MutWildPlane : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        const std::size_t n = text.size();
        const std::size_t k = pattern.size();
        BitVec result(n);
        if (k == 0 || n == 0 || k > n)
            return result;
        for (std::size_t i = k - 1; i < n; ++i) {
            bool all = true;
            for (std::size_t j = 0; j < k && all; ++j)
                all = text[i - k + 1 + j] == pattern[j]; // BUG: no
                                                         // wildcard test
            result.set(i, all);
        }
        return result;
    }

    std::string name() const override { return "mut-wild-plane"; }
};

/**
 * Seeded bug: the lead mask that suppresses incomplete windows clears
 * positions i < k instead of i < k-1, killing the earliest legal
 * match (the one flush against the start of the text).
 */
class MutLeadMask : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        core::SimdParallelMatcher inner(core::SimdIsa::Scalar);
        BitVec result = inner.match(text, pattern);
        const std::size_t k = pattern.size();
        if (k >= 1 && k - 1 < result.size())
            result.set(k - 1, false); // BUG: mask extends one
                                      // position too far
        return result;
    }

    std::string name() const override { return "mut-lead-mask"; }

    bool supportsWildcards() const override { return true; }
};

/**
 * Seeded bug: the host computes the control stream for the wrong
 * latch phase -- each lambda/x pair rides one pattern position ahead
 * of the comparator result it belongs to, so the end-of-pattern
 * marker (and any wildcard bit) latches against the neighboring
 * cell's comparison.
 */
class MutLatchPhase : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        const std::size_t n = text.size();
        const std::size_t k = pattern.size();
        BitVec result(n);
        if (k == 0 || n == 0 || k > n)
            return result;

        core::BehavioralChip chip(k);
        const core::ChipFeedPlan plan(k, pattern, n);
        std::size_t collected = 0;
        for (Beat beat = 0;
             beat < plan.totalBeats() && collected < n; ++beat) {
            chip.feedPattern(plan.patternAt(beat));
            chip.feedControl(plan.controlAt(beat + 2)); // BUG: control
                                                        // content one
                                                        // position ahead
            chip.feedString(plan.stringAt(beat, text));
            chip.feedResult(plan.resultAt(beat));
            chip.step();
            const core::ResToken out = chip.resultOut();
            if (out.valid) {
                result.set(collected, collected >= k - 1 && out.value);
                ++collected;
            }
        }
        return result;
    }

    std::string name() const override { return "mut-latch-phase"; }

    bool supportsWildcards() const override { return true; }
};

/**
 * Seeded bug: the counting cell's integer slot saturates at 7 (a
 * 3-bit counter), so a full match of a pattern with k >= 8 reports
 * count 7 and the match bit derived from count == k goes false.
 */
class MutCountSaturate : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        const std::size_t n = text.size();
        const std::size_t k = pattern.size();
        BitVec result(n);
        if (k == 0 || n == 0 || k > n)
            return result;
        const std::vector<unsigned> counts =
            core::referenceMatchCounts(text, pattern);
        for (std::size_t i = 0; i < n; ++i) {
            const unsigned saturated =
                std::min(counts[i], 7u); // BUG: 3-bit counter
            result.set(i, saturated == k);
        }
        return result;
    }

    std::string name() const override { return "mut-count-saturate"; }

    bool supportsWildcards() const override { return true; }
};

/**
 * Seeded bug: the multi-pattern plane walk's shifted AND drops the
 * inter-word carry -- the bits a shift by d must borrow from the
 * next-lower 64-bit word (`src[j-1] >> (64-bs)` in andShifted) -- so a
 * match whose window straddles a word boundary loses the low-word
 * half of its evidence and goes false.
 */
class MutDictPlaneCarry : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        const std::size_t n = text.size();
        const std::size_t k = pattern.size();
        BitVec result(n);
        if (k == 0 || n == 0 || k > n)
            return result;

        const std::size_t nw = (n + 63) / 64;
        std::vector<std::uint64_t> row(nw, ~std::uint64_t{0});
        std::vector<std::uint64_t> eq(nw);
        for (std::size_t j = 0; j < k; ++j) {
            if (pattern[j] == wildcardSymbol)
                continue;
            std::fill(eq.begin(), eq.end(), 0);
            for (std::size_t i = 0; i < n; ++i)
                if (text[i] == pattern[j])
                    eq[i / 64] |= std::uint64_t{1} << (i % 64);
            const std::size_t d = k - 1 - j;
            const std::size_t ws = d / 64;
            const std::size_t bs = d % 64;
            for (std::size_t w = 0; w < nw; ++w) {
                std::uint64_t v = 0;
                if (w >= ws)
                    v = eq[w - ws] << bs; // BUG: the carry term
                                          // eq[w-ws-1] >> (64-bs) is
                                          // dropped
                row[w] &= v;
            }
        }
        for (std::size_t i = k - 1; i < n; ++i)
            result.set(i, ((row[i / 64] >> (i % 64)) & 1) != 0);
        return result;
    }

    std::string name() const override { return "mut-dict-plane-carry"; }

    bool supportsWildcards() const override { return true; }
};

/**
 * Seeded bug: the batch matcher slices a fresh lane with its warm-up
 * offset one short -- from position k-2 instead of k-1 -- so the
 * lane's first kept window reaches back across the lane boundary and
 * reads the previous lane's last character. The case text rides as
 * the second lane of a pack behind a copy of itself, as a batch
 * serving the same request twice would lay it out.
 */
class MutBatchWarmup : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        const std::size_t n = text.size();
        const std::size_t k = pattern.size();
        std::vector<Symbol> concat(text);
        concat.insert(concat.end(), text.begin(), text.end());
        const std::vector<std::uint64_t> &packed =
            kernel.matchPacked(concat, pattern);
        const std::size_t first =
            std::min(n, k >= 2 ? k - 2 : 0); // BUG: k-1
        BitVec result(first);
        result.append(packed, n + first, n - first);
        return result;
    }

    std::string name() const override { return "mut-batch-warmup"; }

    bool supportsWildcards() const override { return true; }

  private:
    core::SimdParallelMatcher kernel;
};

/**
 * Seeded bug: the lane path's string-plane builder reads lane j's
 * k-1 overlap characters from lane j+1's window, so each window past
 * the first sees its neighbour's input where its predecessor's chunk
 * tail belongs. The case runs as the gate-lanes oracle's 16-lane cut;
 * outside that oracle's shape limits the mutant answers with the
 * reference, so only cases of a shape gate-lanes runs can catch it.
 */
class MutLaneTail : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        const std::size_t k = pattern.size();
        const BitWidth bits =
            std::max(requiredBits(text), requiredBits(pattern));
        if (k == 0 || k > gateLanesMaxPattern ||
            text.size() > gateLanesMaxText || bits > gateLanesMaxBits)
            return core::ReferenceMatcher().match(text, pattern);

        LaneCut cut = cutIntoLanes(text, k, 16);
        for (std::size_t j = 0; j + 1 < cut.windows.size(); ++j) {
            const std::vector<Symbol> &next = cut.windows[j + 1];
            for (std::size_t t = 0;
                 t < cut.overlap[j] && t < next.size(); ++t)
                cut.windows[j][t] = next[t]; // BUG: keep lane j's own
        }
        core::GateLevelMatcher chip(k, bits);
        return matchLaneCut(chip, cut, pattern);
    }

    std::string name() const override { return "mut-lane-tail"; }
};

} // namespace

const std::vector<Mutant> &
allMutants()
{
    static const std::vector<Mutant> mutants = {
        {"mut-shard-overlap",
         "overlap stitching off by one: shards reserve k-2 overlap "
         "characters instead of k-1",
         "a match window straddling a shard boundary",
         [] { return std::make_unique<MutShardOverlap>(); }},
        {"mut-wild-plane",
         "dropped wildcard plane: wildcardSymbol compared as a "
         "literal character",
         "a wildcard position inside a matching window",
         [] { return std::make_unique<MutWildPlane>(); }},
        {"mut-lead-mask",
         "lead mask off by one: positions i < k cleared instead of "
         "i < k-1",
         "a match flush against the start of the text",
         [] { return std::make_unique<MutLeadMask>(); }},
        {"mut-latch-phase",
         "wrong comparator latch phase: control stream fed in phase "
         "with the pattern instead of trailing one beat",
         "any pattern with a wildcard or with k >= 2",
         [] { return std::make_unique<MutLatchPhase>(); }},
        {"mut-count-saturate",
         "counting cell saturates at 7, losing full-match counts for "
         "k >= 8",
         "a full match of a pattern with k >= 8",
         [] { return std::make_unique<MutCountSaturate>(); }},
        {"mut-dict-plane-carry",
         "dropped inter-word carry in the plane shift: bits borrowed "
         "across a 64-bit word boundary are lost",
         "a match window straddling a packed-word boundary",
         [] { return std::make_unique<MutDictPlaneCarry>(); }},
        {"mut-batch-warmup",
         "batch warm-up offset one short: a fresh lane keeps position "
         "k-2, whose window reads the previous lane's last character",
         "a lane whose first k-1 characters, behind the previous "
         "lane's last one, fill a pattern window",
         [] { return std::make_unique<MutBatchWarmup>(); }},
        {"mut-lane-tail",
         "lane input leak: lane j's k-1 overlap characters are read "
         "from lane j+1's window",
         "a match ending in the first k-1 characters of a lane's chunk",
         [] { return std::make_unique<MutLaneTail>(); }},
    };
    return mutants;
}

} // namespace spm::conformance
