/** @file Unit tests for the deterministic RNG and workload generators. */

#include <gtest/gtest.h>

#include <set>

#include "util/rng.hh"

namespace spm
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitMix64AndStreamsArePinned)
{
    // SplitMix64's published outputs for state 0 (the reservoir draws,
    // the chaos schedules and Rng seeding all hash through it), and
    // the first draws of Rng(42): any change to either shifts every
    // seeded workload in the repository.
    EXPECT_EQ(splitmix64(0), 0xE220A8397B1DCDAFULL);
    EXPECT_EQ(splitmix64(0x9E3779B97F4A7C15ULL), 0x6E789E6AA1B965F4ULL);
    Rng r(42);
    EXPECT_EQ(r.next(), 0x15780B2E0C2EC716ULL);
    EXPECT_EQ(r.next(), 0x6104D9866D113A7EULL);
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 32; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 24);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversAllResidues)
{
    Rng r(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(r.nextBelow(7));
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowZeroPanics)
{
    Rng r(3);
    EXPECT_THROW(r.nextBelow(0), std::logic_error);
}

TEST(Rng, NextInRangeInclusive)
{
    Rng r(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 400; ++i) {
        const auto v = r.nextInRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng r(13);
    for (int i = 0; i < 1000; ++i) {
        const double v = r.nextDouble();
        EXPECT_GE(v, 0.0);
        EXPECT_LT(v, 1.0);
    }
}

TEST(Rng, BernoulliRoughlyCalibrated)
{
    Rng r(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.nextBool(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.03);
}

TEST(WorkloadGen, SymbolsRespectAlphabet)
{
    WorkloadGen gen(5, 2);
    EXPECT_EQ(gen.alphabetSize(), 4);
    for (int i = 0; i < 500; ++i)
        EXPECT_LT(gen.randomSymbol(), 4);
}

TEST(WorkloadGen, PatternWildcardDensity)
{
    WorkloadGen gen(5, 3);
    const auto pat = gen.randomPattern(4000, 0.5);
    std::size_t wild = 0;
    for (Symbol s : pat)
        wild += s == wildcardSymbol;
    EXPECT_NEAR(static_cast<double>(wild) / 4000.0, 0.5, 0.05);
}

TEST(WorkloadGen, NoWildcardsByDefault)
{
    WorkloadGen gen(6, 2);
    for (Symbol s : gen.randomPattern(200))
        EXPECT_NE(s, wildcardSymbol);
}

TEST(WorkloadGen, PlantsGuaranteeOccurrences)
{
    WorkloadGen gen(8, 2);
    const auto pat = gen.randomPattern(5, 0.3);
    const auto text = gen.textWithPlants(100, pat, 20);
    // Every planted offset must match the pattern.
    for (std::size_t at = 0; at + 5 <= 100; at += 20) {
        for (std::size_t j = 0; j < 5; ++j) {
            if (pat[j] != wildcardSymbol)
                EXPECT_EQ(text[at + j], pat[j]);
        }
    }
}

TEST(WorkloadGen, RejectsSillyAlphabet)
{
    EXPECT_THROW(WorkloadGen(1, 0), std::logic_error);
    EXPECT_THROW(WorkloadGen(1, 16), std::logic_error);
}

} // namespace
} // namespace spm
