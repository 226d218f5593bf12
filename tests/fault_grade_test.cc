/**
 * @file
 * Tests for the chip-scale fault grader: end-to-end grading of the
 * prototype-shaped chip (collapse ratio, coverage accounting, the
 * hardest-first undetected list), determinism, the serial cross-check
 * contract, and the typed InvalidFaultSite validation added to the
 * injector's lowering paths.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/gatechip.hh"
#include "fault/grade.hh"
#include "fault/injector.hh"
#include "fault/model.hh"
#include "telemetry/metrics.hh"

namespace spm::fault
{
namespace
{

GradeConfig
quickConfig()
{
    GradeConfig cfg;
    cfg.cells = 4;
    cfg.textLen = 24;
    cfg.workloads = 2;
    cfg.crossCheckSamples = 24;
    return cfg;
}

TEST(Grade, EndToEndAccountingHoldsTogether)
{
    FaultGrader grader(quickConfig());
    const GradeReport rep = grader.run();

    EXPECT_GE(rep.collapse.simRatio(), 1.5);
    EXPECT_EQ(rep.collapse.totalSites, rep.nodes * 2);
    EXPECT_EQ(rep.classDetected.size(), rep.collapse.classCount);

    // Detected + undetected partitions the classes.
    EXPECT_EQ(rep.detectedClasses + rep.undetected.size(),
              rep.collapse.classCount);
    const std::size_t flagged = static_cast<std::size_t>(
        std::count(rep.classDetected.begin(), rep.classDetected.end(),
                   1));
    EXPECT_EQ(flagged, rep.detectedClasses);

    // Per-workload newly-detected counts sum to the total.
    std::size_t sum = 0;
    for (const std::size_t d : rep.workloadDetected)
        sum += d;
    EXPECT_EQ(sum, rep.detectedClasses);

    // Site coverage expands through the classes, so it can never
    // count fewer sites than classes.
    EXPECT_GE(rep.detectedSites, rep.detectedClasses);
    EXPECT_GT(rep.classCoverage(), 0.0);
    EXPECT_LE(rep.classCoverage(), 100.0);

    // The word simulator's verdicts agreed with every sampled serial
    // re-run -- the exactness contract.
    EXPECT_EQ(rep.crossChecked, quickConfig().crossCheckSamples);
    EXPECT_EQ(rep.crossCheckMismatches, 0u);

    // Undetected list is hardest-first.
    for (std::size_t i = 1; i < rep.undetected.size(); ++i)
        EXPECT_GE(rep.undetected[i - 1].difficulty,
                  rep.undetected[i].difficulty);
}

TEST(Grade, RunsAreDeterministic)
{
    const GradeReport a = FaultGrader(quickConfig()).run();
    const GradeReport b = FaultGrader(quickConfig()).run();
    EXPECT_EQ(a.detectedClasses, b.detectedClasses);
    EXPECT_EQ(a.classDetected, b.classDetected);
    EXPECT_EQ(a.renderText(10), b.renderText(10));
}

TEST(Grade, MixedLengthPoolAlternatesPatternLengths)
{
    GradeConfig cfg = quickConfig();
    cfg.cells = 6;
    cfg.patternLen = 2;
    const GradeReport rep = FaultGrader(cfg).run();
    ASSERT_EQ(rep.workloadPatternLen.size(), cfg.workloads);
    // Even slots carry the configured short pattern; odd slots a
    // window-filling one that exercises the right-edge compare chain.
    EXPECT_EQ(rep.workloadPatternLen[0], cfg.patternLen);
    EXPECT_EQ(rep.workloadPatternLen[1], cfg.cells);

    GradeConfig uniform = cfg;
    uniform.mixedLengths = false;
    const GradeReport u = FaultGrader(uniform).run();
    EXPECT_EQ(u.workloadPatternLen[1], cfg.patternLen);
}

TEST(Grade, ReportRendersTheHeadline)
{
    const GradeReport rep = FaultGrader(quickConfig()).run();
    const std::string text = rep.renderText(3);
    EXPECT_NE(text.find("fault grading report"), std::string::npos);
    EXPECT_NE(text.find("coverage: classes"), std::string::npos);
    EXPECT_NE(text.find("cross-check:"), std::string::npos);
}

TEST(InvalidSite, GateLoweringRejectsBadCell)
{
    core::GateChip chip(2, 2);
    Fault f;
    f.kind = FaultKind::StuckAt1;
    f.point = systolic::FaultPoint::ResultLatch;
    f.cell = 7; // the chip has 2 cells
    EXPECT_THROW(lowerStuckAtFaults(chip, {f}), InvalidFaultSite);
}

TEST(InvalidSite, GateLoweringRejectsBadBit)
{
    core::GateChip chip(2, 2);
    Fault f;
    f.kind = FaultKind::StuckAt0;
    f.point = systolic::FaultPoint::PatternLatch;
    f.cell = 0;
    f.bit = 5; // symbol latches have 2 bits
    EXPECT_THROW(lowerStuckAtFaults(chip, {f}), InvalidFaultSite);
}

TEST(InvalidSite, ValidSweepStillLowersEverySite)
{
    core::GateChip chip(2, 2);
    const std::vector<Fault> sweep = sweepStuckAtFaults(2, 2);
    // Every generated site must resolve to a real node now that
    // missing names throw instead of being skipped.
    std::size_t forced = 0;
    EXPECT_NO_THROW(forced = lowerStuckAtFaults(chip, sweep));
    EXPECT_EQ(forced, sweep.size());
}

} // namespace
} // namespace spm::fault
