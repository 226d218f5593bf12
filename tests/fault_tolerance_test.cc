/**
 * @file
 * Tests for the fault-injection and fault-tolerance subsystem: the
 * injector itself, the detection layers (parity, self-checking
 * comparators, TMR disagreement, reference cross-check), the recovery
 * layers (vote, retry, bypass) and the campaign classification.
 */

#include <gtest/gtest.h>

#include "core/behavioral.hh"
#include "core/gatechip.hh"
#include "core/reference.hh"
#include "fault/bypass.hh"
#include "fault/campaign.hh"
#include "fault/injector.hh"
#include "fault/model.hh"
#include "fault/parity.hh"
#include "fault/retry.hh"
#include "flow/wafer.hh"
#include "util/rng.hh"

namespace spm::fault
{
namespace
{

using systolic::FaultPoint;

CampaignConfig
baseConfig()
{
    CampaignConfig cfg;
    cfg.cells = 8;
    cfg.alphabetBits = 2;
    cfg.textLen = 48;
    cfg.patternLen = 4;
    cfg.wildcardProb = 0.25;
    cfg.seed = 1979;
    return cfg;
}

TEST(FaultModel, SweepsAreExhaustiveAndDeterministic)
{
    const auto stuck = sweepStuckAtFaults(8, 2);
    // Per cell and stuck polarity: 2+2 symbol bits, compare, two
    // control bits, result = 8 points; 8 cells x 2 polarities x 8.
    EXPECT_EQ(stuck.size(), 8u * 2u * 8u);
    EXPECT_EQ(sweepDeadCellFaults(8).size(), 8u);

    const auto t1 = sweepTransientFaults(8, 2, 100, 32, 42);
    const auto t2 = sweepTransientFaults(8, 2, 100, 32, 42);
    ASSERT_EQ(t1.size(), 32u);
    for (std::size_t i = 0; i < t1.size(); ++i) {
        EXPECT_EQ(t1[i].describe(), t2[i].describe());
        EXPECT_GE(t1[i].beat, 1u);
        EXPECT_LE(t1[i].beat, 100u);
    }
}

TEST(FaultInjector, StuckResultLatchCorruptsTheMatch)
{
    // An unprotected run with a stuck result latch must disagree
    // with the reference somewhere -- the injector demonstrably
    // reaches real latches.
    FaultCampaign campaign(baseConfig());
    Fault f;
    f.kind = FaultKind::StuckAt1;
    f.point = FaultPoint::ResultLatch;
    f.cell = 0;
    EXPECT_EQ(campaign.runReferenceChecked(Fidelity::Behavioral, f),
              Outcome::Detected);
}

TEST(FaultInjector, SameFaultSameOutcome)
{
    FaultCampaign a(baseConfig());
    FaultCampaign b(baseConfig());
    const auto faults = sweepStuckAtFaults(8, 2);
    for (std::size_t i = 0; i < faults.size(); i += 17) {
        const TrialResult ra = a.runTrial(faults[i]);
        const TrialResult rb = b.runTrial(faults[i]);
        EXPECT_EQ(ra.outcome, rb.outcome) << faults[i].describe();
        EXPECT_EQ(ra.detectors(), rb.detectors());
    }
}

TEST(FaultInjector, BitSerialFidelitySeesTheSameFault)
{
    // The same abstract fault lowers onto the bit-serial grid and is
    // caught there by the reference cross-check too.
    FaultCampaign campaign(baseConfig());
    Fault f;
    f.kind = FaultKind::StuckAt1;
    f.point = FaultPoint::ResultLatch;
    f.cell = 0;
    EXPECT_EQ(campaign.runReferenceChecked(Fidelity::BitSerial, f),
              Outcome::Detected);
}

TEST(FaultInjector, GateLevelStuckNodeDetected)
{
    FaultCampaign campaign(baseConfig());
    Fault f;
    f.kind = FaultKind::StuckAt1;
    f.point = FaultPoint::ResultLatch;
    f.cell = 0;
    EXPECT_EQ(campaign.runReferenceChecked(Fidelity::GateLevel, f),
              Outcome::Detected);
}

TEST(Netlist, ForceStuckAtPinsTheNode)
{
    core::GateChip chip(2, 2);
    gate::Netlist &net = chip.netlist();
    const gate::NodeId node = net.findNode("r_o_0");
    ASSERT_NE(node, gate::invalidNode);
    EXPECT_EQ(net.findNode("no_such_node"), gate::invalidNode);

    net.forceStuckAt(node, gate::LogicValue::H, 0);
    EXPECT_EQ(net.stuckCount(), 1u);
    EXPECT_EQ(net.value(node), gate::LogicValue::H);
    // Clock activity must not move a stuck node.
    for (int i = 0; i < 8; ++i)
        chip.tick();
    EXPECT_EQ(net.value(node), gate::LogicValue::H);

    net.clearStuckAt(node);
    EXPECT_EQ(net.stuckCount(), 0u);
}

TEST(StreamParity, CleanStreamChecksOut)
{
    StreamParityChecker chk(2);
    for (Symbol s : {Symbol(0), Symbol(1), Symbol(2), Symbol(3)})
        chk.onFeed(s);
    for (Symbol s : {Symbol(0), Symbol(1), Symbol(2), Symbol(3)})
        chk.onExit(s);
    EXPECT_EQ(chk.checked(), 4u);
    EXPECT_EQ(chk.errors(), 0u);
}

TEST(StreamParity, SingleBitCorruptionCaught)
{
    StreamParityChecker chk(2);
    chk.onFeed(Symbol(2));
    chk.onExit(Symbol(3)); // one bit flipped in transit
    EXPECT_EQ(chk.errors(), 1u);
}

TEST(Detection, ParityFlagsStringLatchFault)
{
    CampaignConfig cfg = baseConfig();
    cfg.protection = Protection::none();
    cfg.protection.parity = true;
    cfg.protection.referenceCheck = true;
    FaultCampaign campaign(cfg);

    Fault f;
    f.kind = FaultKind::StuckAt1;
    f.point = FaultPoint::StringLatch;
    f.cell = 3;
    f.bit = 0;
    const TrialResult tr = campaign.runTrial(f);
    EXPECT_TRUE(tr.parityFlag) << tr.detectors();
    EXPECT_NE(tr.outcome, Outcome::Silent);
}

TEST(Detection, SelfCheckFlagsCompareLatchFault)
{
    CampaignConfig cfg = baseConfig();
    cfg.protection = Protection::none();
    cfg.protection.selfCheck = true;
    cfg.protection.referenceCheck = true;
    FaultCampaign campaign(cfg);

    Fault f;
    f.kind = FaultKind::StuckAt1;
    f.point = FaultPoint::CompareLatch;
    f.cell = 2;
    const TrialResult tr = campaign.runTrial(f);
    EXPECT_TRUE(tr.selfCheckFlag) << tr.detectors();
    EXPECT_NE(tr.outcome, Outcome::Silent);
}

TEST(Detection, CleanRunRaisesNoSignals)
{
    CampaignConfig cfg = baseConfig();
    FaultCampaign campaign(cfg);
    // A masked "fault": flipping a bit on beat 0 -- before any valid
    // token is latched anywhere -- must leave every signal quiet.
    Fault f;
    f.kind = FaultKind::TransientFlip;
    f.point = FaultPoint::PatternLatch;
    f.cell = 7;
    f.beat = 1;
    const TrialResult tr = campaign.runTrial(f);
    EXPECT_EQ(tr.outcome, Outcome::Masked);
    EXPECT_EQ(tr.detectors(), "-");
}

TEST(Tmr, CampaignVoteCorrectsWithoutRetry)
{
    CampaignConfig cfg = baseConfig();
    cfg.protection = Protection::none();
    cfg.protection.tmr = true;
    cfg.protection.referenceCheck = true;
    FaultCampaign campaign(cfg);

    Fault f;
    f.kind = FaultKind::StuckAt1;
    f.point = FaultPoint::ResultLatch;
    f.cell = 0;
    const TrialResult tr = campaign.runTrial(f);
    EXPECT_EQ(tr.outcome, Outcome::Corrected);
    EXPECT_TRUE(tr.tmrFlag);
    EXPECT_EQ(tr.attempts, 1u) << "the vote corrects in place";
}

TEST(Retry, TransientClearedOnSecondAttempt)
{
    unsigned calls = 0;
    HostRetryController retry({3, 16});
    const auto result = retry.run(
        [&calls] {
            ++calls;
            return BitVec(1, calls >= 2);
        },
        [](const BitVec &r) { return r.get(0); });
    EXPECT_TRUE(result.get(0));
    EXPECT_EQ(retry.lastAttempts(), 2u);
    EXPECT_EQ(retry.lastBackoffBeats(), 16u);
}

TEST(Retry, ExhaustionThrowsWithBackoffSpent)
{
    HostRetryController retry({2, 8});
    EXPECT_THROW(
        retry.run([] { return BitVec(1); },
                  [](const BitVec &r) { return r.get(0); }),
        RetryExhausted);
    EXPECT_EQ(retry.lastAttempts(), 3u);
    EXPECT_EQ(retry.lastBackoffBeats(), 8u + 16u);
}

TEST(Retry, CampaignTransientRecoversByRerun)
{
    CampaignConfig cfg = baseConfig();
    cfg.protection = Protection::none();
    cfg.protection.referenceCheck = true;
    cfg.protection.retry = true;
    FaultCampaign campaign(cfg);

    // Find a transient the workload is actually sensitive to, then
    // check the retry path corrects it (the upset does not recur).
    const auto transients = sweepTransientFaults(
        8, 2, campaign.protocolBeats(), 64, 123);
    bool exercised = false;
    for (const Fault &f : transients) {
        const TrialResult tr = campaign.runTrial(f);
        if (tr.outcome == Outcome::Masked)
            continue;
        exercised = true;
        EXPECT_EQ(tr.outcome, Outcome::Corrected) << f.describe();
        EXPECT_EQ(tr.attempts, 2u) << f.describe();
    }
    EXPECT_TRUE(exercised)
        << "no transient in the sample had any effect";
}

TEST(Retry, StrictExhaustionSurfacesAnError)
{
    // Permanent fault, no TMR and no bypass: every retry re-attaches
    // the fault, so a strict campaign must surface RetryExhausted.
    CampaignConfig cfg = baseConfig();
    cfg.protection = Protection::none();
    cfg.protection.referenceCheck = true;
    cfg.protection.retry = true;
    cfg.strictRetry = true;
    cfg.retryPolicy.maxRetries = 2;
    FaultCampaign campaign(cfg);

    Fault f;
    f.kind = FaultKind::StuckAt1;
    f.point = FaultPoint::ResultLatch;
    f.cell = 0;
    EXPECT_THROW(campaign.runTrial(f), RetryExhausted);

    // The lenient campaign classifies the same trial Detected: the
    // wrong answer is flagged, never trusted.
    cfg.strictRetry = false;
    FaultCampaign lenient(cfg);
    const TrialResult tr = lenient.runTrial(f);
    EXPECT_EQ(tr.outcome, Outcome::Detected);
    EXPECT_EQ(tr.attempts, 1u + 3u);
}

TEST(Bypass, RetiringACellDegradesTheChain)
{
    BypassController bp(flow::Wafer(2, 4, 0.0, 1));
    EXPECT_EQ(bp.availableCells(), 8u);
    EXPECT_EQ(bp.retireCell(3), 7u);
    EXPECT_EQ(bp.retiredCount(), 1u);
    EXPECT_FALSE(bp.wafer().isGood(0, 3))
        << "chain position 3 of a pristine 2x4 snake is site (0,3)";
}

TEST(Bypass, CampaignDeadCellRecoversOnDegradedArray)
{
    // No TMR: the dead cell survives every retry, so recovery falls
    // to the snake re-harvest and the multipass re-run on N-1 cells.
    CampaignConfig cfg = baseConfig();
    cfg.protection.tmr = false;
    cfg.retryPolicy.maxRetries = 1;
    FaultCampaign campaign(cfg);

    Fault f;
    f.kind = FaultKind::DeadCell;
    f.cell = 1;
    const TrialResult tr = campaign.runTrial(f);
    ASSERT_NE(tr.outcome, Outcome::Silent);
    ASSERT_NE(tr.outcome, Outcome::Masked)
        << "a dead cell must be observable on this workload";
    EXPECT_EQ(tr.outcome, Outcome::Corrected);
    EXPECT_EQ(tr.degradedCells, cfg.cells - 1)
        << "2x4 wafer has no spare sites: N degrades to N-1";
}

TEST(Campaign, FullProtectionLeavesNothingSilent)
{
    FaultCampaign campaign(baseConfig());
    auto faults = sweepStuckAtFaults(8, 2);
    const auto dead = sweepDeadCellFaults(8);
    faults.insert(faults.end(), dead.begin(), dead.end());

    const auto results = campaign.run(faults);
    const auto s = FaultCampaign::summarize(results);
    EXPECT_EQ(s.silent, 0u);
    EXPECT_GT(s.effective(), 0u);
    EXPECT_GE(s.detectedOrCorrectedPct(), 99.0)
        << "acceptance: >=99% of effective permanent faults "
           "detected or corrected";
}

TEST(Campaign, CoverageTableIsReproducible)
{
    auto faults = sweepStuckAtFaults(4, 2);
    CampaignConfig cfg = baseConfig();
    cfg.cells = 4;
    cfg.textLen = 24;

    FaultCampaign a(cfg);
    FaultCampaign b(cfg);
    const auto ta =
        FaultCampaign::coverageTable(a.run(faults), "campaign");
    const auto tb =
        FaultCampaign::coverageTable(b.run(faults), "campaign");
    EXPECT_EQ(ta.toString(), tb.toString())
        << "seeded campaigns must be bit-for-bit reproducible";
}

TEST(Campaign, SelfCheckingVariantMatchesPlainWhenHealthy)
{
    // The duplicated comparator changes nothing functionally.
    WorkloadGen gen(11, 2);
    const auto pattern = gen.randomPattern(4, 0.25);
    const auto text = gen.textWithPlants(40, pattern, 10);

    core::BehavioralChip chip(
        4, prototypeBeatPs,
        core::BehavioralChip::CellVariant::SelfChecking);
    core::ChipHooks hooks;
    hooks.feedInputs = [&chip](const core::PatToken &p,
                               const core::CtlToken &c,
                               const core::StrToken &s,
                               const core::ResToken &r) {
        chip.feedPattern(p);
        chip.feedControl(c);
        chip.feedString(s);
        chip.feedResult(r);
    };
    hooks.step = [&chip] { chip.step(); };
    hooks.resultOut = [&chip] { return chip.resultOut(); };

    const auto [result, beats] =
        core::runMatchProtocol(hooks, 4, text, pattern);
    EXPECT_EQ(result, core::ReferenceMatcher().match(text, pattern));
    EXPECT_GT(beats, 0u);
    EXPECT_EQ(chip.selfCheckMismatches(), 0u);
}

} // namespace
} // namespace spm::fault
