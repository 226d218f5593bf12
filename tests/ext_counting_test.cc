/** @file Tests for the match-counting array (Section 3.4). */

#include <gtest/gtest.h>

#include "core/reference.hh"
#include "extensions/counting.hh"
#include "tests/helpers.hh"
#include "util/strings.hh"

namespace spm::ext
{
namespace
{

TEST(Counting, SmallExample)
{
    SystolicMatchCounter counter;
    const auto c = counter.count(parseSymbols("ABAB"),
                                 parseSymbols("AB"));
    EXPECT_EQ(c, (std::vector<unsigned>{0, 2, 0, 2}));
}

TEST(Counting, WildcardsAlwaysCount)
{
    SystolicMatchCounter counter;
    const auto c = counter.count(parseSymbols("CD"),
                                 parseSymbols("XX"));
    EXPECT_EQ(c[1], 2u);
}

TEST(Counting, FullMatchCountEqualsPatternLength)
{
    SystolicMatchCounter counter;
    const auto text = parseSymbols("ABCABC");
    const auto pat = parseSymbols("ABC");
    const auto c = counter.count(text, pat);
    core::ReferenceMatcher ref;
    const auto r = ref.match(text, pat);
    for (std::size_t i = 0; i < text.size(); ++i) {
        if (r.get(i))
            EXPECT_EQ(c[i], pat.size()) << "i=" << i;
    }
}

TEST(Counting, CountGeneralizesMatching)
{
    // r_i == (count_i == k+1): the counting chip subsumes the
    // matching chip.
    core::ReferenceMatcher ref;
    SystolicMatchCounter counter;
    for (std::uint64_t i = 0; i < 8; ++i) {
        const auto w = test::makeWorkload(i + 60);
        const auto counts = counter.count(w.text, w.pattern);
        const auto bits = ref.match(w.text, w.pattern);
        for (std::size_t j = w.pattern.size() - 1; j < w.text.size();
             ++j) {
            EXPECT_EQ(bits.get(j), counts[j] == w.pattern.size())
                << "workload " << i << " position " << j;
        }
    }
}

TEST(Counting, MatchesReferenceCounts)
{
    SystolicMatchCounter counter;
    for (std::uint64_t i = 0; i < 12; ++i) {
        const auto w = test::makeWorkload(i + 70);
        EXPECT_EQ(counter.count(w.text, w.pattern),
                  core::referenceMatchCounts(w.text, w.pattern))
            << "workload " << i;
    }
}

TEST(Counting, OversizedArrayStillCorrect)
{
    SystolicMatchCounter counter(9);
    const auto text = parseSymbols("ABCABCABC");
    const auto pat = parseSymbols("AXC");
    EXPECT_EQ(counter.count(text, pat),
              core::referenceMatchCounts(text, pat));
}

TEST(Counting, DegenerateInputs)
{
    SystolicMatchCounter counter(4);
    EXPECT_TRUE(counter.count({}, parseSymbols("A")).empty());
    EXPECT_EQ(counter.count(parseSymbols("A"), parseSymbols("AB")),
              (std::vector<unsigned>{0}));
}

TEST(Counting, TotalsEqualScalarRecountOnGeneratedCases)
{
    // Property over the conformance generator's hard regions: the
    // systolic totals equal an independent scalar recount of
    // per-window matches, and count == k coincides with the match
    // bit of the reference definition.
    core::ReferenceMatcher ref;
    for (std::uint64_t index = 0; index < 48; ++index) {
        const test::Workload w = test::makeWorkload(index);
        const std::size_t n = w.text.size();
        const std::size_t k = w.pattern.size();
        if (k > 64 || n > 192)
            continue; // keep the engine-simulated array tractable

        const auto counts =
            SystolicMatchCounter().count(w.text, w.pattern);
        const auto bits = ref.match(w.text, w.pattern);
        ASSERT_EQ(counts.size(), n) << w.caseId;
        for (std::size_t i = k - 1; i < n; ++i) {
            unsigned recount = 0;
            for (std::size_t j = 0; j < k; ++j) {
                const Symbol p = w.pattern[j];
                recount += (p == wildcardSymbol ||
                            p == w.text[i - (k - 1) + j])
                               ? 1u
                               : 0u;
            }
            EXPECT_EQ(counts[i], recount)
                << "i=" << i << " case=" << w.caseId;
            EXPECT_EQ(bits.get(i), counts[i] == k)
                << "i=" << i << " case=" << w.caseId;
        }
        for (std::size_t i = 0; i + 1 < k && i < n; ++i)
            EXPECT_EQ(counts[i], 0u)
                << "i=" << i << " case=" << w.caseId;
    }
}

} // namespace
} // namespace spm::ext
