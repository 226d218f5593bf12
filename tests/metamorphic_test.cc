/**
 * @file
 * Metamorphic properties of the matching problem.
 *
 * Beyond agreeing with the reference, the Section 3.1 definition has
 * algebraic consequences any implementation must satisfy: shifting
 * the text shifts the results, relabeling the alphabet preserves
 * them, all-wild-card patterns match everywhere, appending a
 * mismatching character kills a window, and the counting chip
 * dominates the matching chip. These hold for arbitrary inputs, so
 * they catch classes of bugs that example-based tests cannot.
 */

#include <gtest/gtest.h>

#include "core/behavioral.hh"
#include "core/bitserial.hh"
#include "core/reference.hh"
#include "extensions/counting.hh"
#include "tests/helpers.hh"

namespace spm
{
namespace
{

using core::BehavioralMatcher;
using core::ReferenceMatcher;

class Metamorphic : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    test::Workload w = test::makeWorkload(GetParam() + 2000);
};

TEST_P(Metamorphic, TextShiftShiftsResults)
{
    // Prepending j characters shifts every defined result bit right
    // by j (new windows may appear in the seam; old ones persist).
    WorkloadGen gen(GetParam(), w.bits);
    const std::size_t shift = 1 + gen.rng().nextBelow(5);
    auto prefixed = gen.randomText(shift);
    prefixed.insert(prefixed.end(), w.text.begin(), w.text.end());

    BehavioralMatcher chip(w.pattern.size());
    const auto base = chip.match(w.text, w.pattern);
    const auto shifted = chip.match(prefixed, w.pattern);
    for (std::size_t i = w.pattern.size() - 1; i < w.text.size(); ++i)
        EXPECT_EQ(shifted.get(i + shift), base.get(i)) << "i=" << i;
}

TEST_P(Metamorphic, AlphabetRelabelingPreservesResults)
{
    // Any permutation of Sigma applied to both streams leaves the
    // result stream unchanged (comparisons only test equality).
    const Symbol sigma = Symbol(1) << w.bits;
    std::vector<Symbol> perm(sigma);
    for (Symbol s = 0; s < sigma; ++s)
        perm[s] = static_cast<Symbol>((s + 1) % sigma); // a rotation

    auto relabel = [&](std::vector<Symbol> v) {
        for (auto &s : v) {
            if (s != wildcardSymbol)
                s = perm[s];
        }
        return v;
    };

    BehavioralMatcher chip(w.pattern.size());
    EXPECT_EQ(chip.match(w.text, w.pattern),
              chip.match(relabel(w.text), relabel(w.pattern)));
}

TEST_P(Metamorphic, AllWildcardPatternMatchesEveryFullWindow)
{
    const std::vector<Symbol> all_wild(w.pattern.size(),
                                       wildcardSymbol);
    BehavioralMatcher chip(all_wild.size());
    const auto r = chip.match(w.text, all_wild);
    for (std::size_t i = 0; i < w.text.size(); ++i)
        EXPECT_EQ(r.get(i), i >= all_wild.size() - 1) << "i=" << i;
}

TEST_P(Metamorphic, PlantedPatternIsFound)
{
    // Planting the pattern (wild cards filled arbitrarily) at any
    // offset creates a result bit at its last character.
    WorkloadGen gen(GetParam() + 9, w.bits);
    auto text = w.text;
    const std::size_t at =
        gen.rng().nextBelow(text.size() - w.pattern.size() + 1);
    for (std::size_t j = 0; j < w.pattern.size(); ++j) {
        text[at + j] = w.pattern[j] == wildcardSymbol
            ? gen.randomSymbol()
            : w.pattern[j];
    }
    BehavioralMatcher chip(w.pattern.size());
    EXPECT_TRUE(chip.match(text, w.pattern).get(at + w.pattern.size() - 1));
}

TEST_P(Metamorphic, ExtendingPatternOnlyRemovesMatches)
{
    // Every match of pattern+suffix is also a match of pattern
    // (monotonicity of conjunction).
    WorkloadGen gen(GetParam() + 17, w.bits);
    auto longer = w.pattern;
    longer.push_back(gen.randomSymbol());
    if (longer.size() > w.text.size())
        return;

    BehavioralMatcher chip_short(w.pattern.size());
    BehavioralMatcher chip_long(longer.size());
    const auto r_short = chip_short.match(w.text, w.pattern);
    const auto r_long = chip_long.match(w.text, longer);
    for (std::size_t i = 0; i + 1 < w.text.size(); ++i) {
        if (r_long.get(i + 1))
            EXPECT_TRUE(r_short.get(i)) << "i=" << i;
    }
}

TEST_P(Metamorphic, CountReachesMaximumExactlyAtMatches)
{
    ext::SystolicMatchCounter counter(w.pattern.size());
    BehavioralMatcher chip(w.pattern.size());
    const auto counts = counter.count(w.text, w.pattern);
    const auto bits = chip.match(w.text, w.pattern);
    for (std::size_t i = w.pattern.size() - 1; i < w.text.size(); ++i) {
        EXPECT_EQ(bits.get(i), counts[i] == w.pattern.size())
            << "i=" << i;
        EXPECT_LE(counts[i], w.pattern.size());
    }
}

TEST_P(Metamorphic, FidelityLevelsAgreeOnMutatedWorkloads)
{
    // Flip one text character and re-check bit-serial == behavioral:
    // single-character sensitivity must propagate identically.
    WorkloadGen gen(GetParam() + 31, w.bits);
    auto text = w.text;
    const std::size_t at = gen.rng().nextBelow(text.size());
    text[at] = gen.randomSymbol();

    BehavioralMatcher chars(w.pattern.size());
    core::BitSerialMatcher bits(w.pattern.size(), w.bits);
    EXPECT_EQ(chars.match(text, w.pattern),
              bits.match(text, w.pattern));
}

INSTANTIATE_TEST_SUITE_P(Sweep, Metamorphic,
                         ::testing::Range<std::uint64_t>(0, 12));

} // namespace
} // namespace spm
