/** @file Tests for wafer-scale integration (Section 5). */

#include <gtest/gtest.h>

#include <cmath>

#include "flow/wafer.hh"

namespace spm::flow
{
namespace
{

TEST(Wafer, PerfectWaferHarvestsEverything)
{
    Wafer w(8, 16, 0.0, 1);
    EXPECT_EQ(w.goodCells(), 8u * 16u);
    const auto h = w.snakeHarvest();
    EXPECT_EQ(h.chainLength, 128u);
    EXPECT_EQ(h.skips, 0u);
    EXPECT_EQ(h.longestJump, 1u);
    EXPECT_DOUBLE_EQ(h.harvestRatio, 1.0);
}

TEST(Wafer, DeadWaferHarvestsNothing)
{
    Wafer w(4, 4, 1.0, 1);
    EXPECT_EQ(w.goodCells(), 0u);
    const auto h = w.snakeHarvest();
    EXPECT_EQ(h.chainLength, 0u);
    EXPECT_DOUBLE_EQ(h.harvestRatio, 0.0);
}

TEST(Wafer, DefectMapIsDeterministic)
{
    Wafer a(16, 16, 0.2, 99);
    Wafer b(16, 16, 0.2, 99);
    for (unsigned r = 0; r < 16; ++r)
        for (unsigned c = 0; c < 16; ++c)
            EXPECT_EQ(a.isGood(r, c), b.isGood(r, c));
}

TEST(Wafer, HarvestEqualsGoodCells)
{
    // The snake visits every site, so every good cell joins the
    // chain -- the whole point of the regular linear array.
    Wafer w(12, 20, 0.15, 7);
    EXPECT_EQ(w.snakeHarvest().chainLength, w.goodCells());
}

TEST(Wafer, DefectRateRoughlyRealized)
{
    Wafer w(64, 64, 0.25, 3);
    const double good_frac =
        static_cast<double>(w.goodCells()) / (64.0 * 64.0);
    EXPECT_NEAR(good_frac, 0.75, 0.03);
}

TEST(Wafer, LongestJumpSpansDefectRuns)
{
    // Construct a wafer where seed gives some adjacent defects and
    // verify longestJump >= 2 whenever skips occurred between good
    // cells.
    Wafer w(1, 32, 0.4, 11);
    const auto h = w.snakeHarvest();
    if (h.chainLength >= 2 && h.skips > 0)
        EXPECT_GE(h.longestJump, 2u);
    EXPECT_LE(h.longestJump, 32u);
}

TEST(Wafer, DicedChipsMatchManualCount)
{
    Wafer w(2, 8, 0.3, 5);
    // Count manually over row-major runs of 4.
    std::size_t manual = 0;
    const std::size_t chip = 4;
    BitVec flat;
    for (unsigned r = 0; r < 2; ++r)
        for (unsigned c = 0; c < 8; ++c)
            flat.pushBack(w.isGood(r, c));
    for (std::size_t at = 0; at + chip <= flat.size(); at += chip) {
        bool ok = true;
        for (std::size_t j = 0; j < chip; ++j)
            ok = ok && flat.get(at + j);
        manual += ok;
    }
    EXPECT_EQ(w.dicedChips(chip), manual);
}

TEST(Wafer, ExpectedChipYieldFormula)
{
    EXPECT_DOUBLE_EQ(Wafer::expectedChipYield(1, 0.1), 0.9);
    EXPECT_NEAR(Wafer::expectedChipYield(8, 0.1),
                std::pow(0.9, 8), 1e-12);
    EXPECT_DOUBLE_EQ(Wafer::expectedChipYield(100, 0.0), 1.0);
}

TEST(Wafer, WaferScaleBeatsDicingUnderDefects)
{
    // The Section 5 argument: at realistic defect rates, harvesting
    // by reconfiguration salvages far more cells than insisting on
    // fully working fixed-size chips.
    Wafer w(32, 32, 0.1, 13);
    const std::size_t harvested = w.snakeHarvest().chainLength;
    const std::size_t diced_cells = w.dicedChips(64) * 64;
    EXPECT_GT(harvested, 2 * diced_cells);
}

TEST(Wafer, ParameterValidation)
{
    EXPECT_THROW(Wafer(0, 4, 0.1, 1), std::logic_error);
    EXPECT_THROW(Wafer(4, 4, 1.5, 1), std::logic_error);
    Wafer w(4, 4, 0.1, 1);
    EXPECT_THROW(w.isGood(4, 0), std::logic_error);
    EXPECT_THROW(w.dicedChips(0), std::logic_error);
}

TEST(Wafer, InvalidConfigurationThrowsInvalidArgument)
{
    // Configuration errors are invalid_argument specifically, so a
    // caller can distinguish bad parameters from simulator bugs.
    EXPECT_THROW(Wafer(0, 4, 0.1, 1), std::invalid_argument);
    EXPECT_THROW(Wafer(4, 0, 0.1, 1), std::invalid_argument);
    EXPECT_THROW(Wafer(4, 4, -0.1, 1), std::invalid_argument);
    EXPECT_THROW(Wafer(4, 4, 1.0001, 1), std::invalid_argument);
}

TEST(Wafer, SingleRowSnakeIsLeftToRight)
{
    Wafer w(1, 6, 0.0, 1);
    const auto h = w.snakeHarvest();
    EXPECT_EQ(h.chainLength, 6u);
    EXPECT_EQ(h.longestJump, 1u);
    const auto sites = w.snakeSites();
    ASSERT_EQ(sites.size(), 6u);
    for (unsigned c = 0; c < 6; ++c) {
        EXPECT_EQ(sites[c].first, 0u);
        EXPECT_EQ(sites[c].second, c);
    }
}

TEST(Wafer, SnakeSitesReverseOnOddRows)
{
    Wafer w(2, 3, 0.0, 1);
    const auto sites = w.snakeSites();
    ASSERT_EQ(sites.size(), 6u);
    // Row 0 left to right, row 1 right to left.
    EXPECT_EQ(sites[2], (std::pair<unsigned, unsigned>{0, 2}));
    EXPECT_EQ(sites[3], (std::pair<unsigned, unsigned>{1, 2}));
    EXPECT_EQ(sites[5], (std::pair<unsigned, unsigned>{1, 0}));
}

TEST(Wafer, SnakeSitesMatchHarvestChain)
{
    Wafer w(6, 9, 0.2, 17);
    EXPECT_EQ(w.snakeSites().size(), w.snakeHarvest().chainLength);
    for (const auto &[r, c] : w.snakeSites())
        EXPECT_TRUE(w.isGood(r, c));
}

TEST(Wafer, ChipLargerThanWaferYieldsNothing)
{
    Wafer w(2, 4, 0.0, 1);
    EXPECT_EQ(w.dicedChips(9), 0u);
    EXPECT_EQ(w.dicedChips(8), 1u);
}

TEST(Wafer, MarkBadReharvestsAroundTheSite)
{
    // Runtime retirement: a cell that dies in service is routed
    // around exactly like a fabrication defect.
    Wafer w(2, 4, 0.0, 1);
    const auto before = w.snakeSites();
    ASSERT_EQ(before.size(), 8u);
    w.markBad(before[5].first, before[5].second);
    EXPECT_EQ(w.goodCells(), 7u);
    const auto after = w.snakeSites();
    ASSERT_EQ(after.size(), 7u);
    for (const auto &site : after)
        EXPECT_NE(site, before[5]);
    // The bypass wire over the retired site shows in the jump bound.
    EXPECT_EQ(w.snakeHarvest().longestJump, 2u);
}

} // namespace
} // namespace spm::flow
