/**
 * @file
 * Chaos-harness tests: seeded fault storms against the sharded
 * service must end in recovery (bit-identical to the un-faulted
 * answer) or a typed error -- never a hang, never silent corruption.
 * These tests are run under ThreadSanitizer by scripts/check.sh.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <thread>

#include "core/reference.hh"
#include "service/chaos.hh"
#include "service/service.hh"
#include "service/sharded.hh"
#include "tests/helpers.hh"

namespace spm::service
{
namespace
{

ShardedConfig
chaosShardConfig(unsigned threads, unsigned spares)
{
    ShardedConfig cfg;
    cfg.base.alphabetBits = 2;
    cfg.base.maxTextLen = 1 << 20;
    cfg.base.chunkChars = 16;
    cfg.threads = threads;
    cfg.spareShards = spares;
    cfg.minShardChars = 24;
    return cfg;
}

/** Software-only ladders keep the storm, not gate simulation, hot. */
ShardedMatchService::LadderFactory
softwareFactory()
{
    return [](const ServiceConfig &) {
        std::vector<std::unique_ptr<ServiceBackend>> ladder;
        ladder.push_back(std::make_unique<SoftwareBackend>());
        return ladder;
    };
}

MatchRequest
randomRequest(std::uint64_t seed, std::size_t text_len, std::size_t pat_len)
{
    const test::Workload w =
        test::makeShapedWorkload(seed, 2, text_len, pat_len, 20);
    MatchRequest req;
    req.id = seed;
    req.text = w.text;
    req.pattern = w.pattern;
    return req;
}

BitVec
expected(const MatchRequest &req)
{
    core::ReferenceMatcher ref;
    return ref.match(req.text, req.pattern);
}

bool
hasErrorKind(const std::vector<ShardError> &errors, ShardFaultKind kind)
{
    for (const ShardError &e : errors)
        if (e.kind == kind)
            return true;
    return false;
}

TEST(ChaosPlan, DecisionsAreSeededAndReplayable)
{
    ChaosConfig cfg;
    cfg.seed = 42;
    cfg.stallProb = 0.1;
    cfg.hangProb = 0.1;
    cfg.throwProb = 0.1;
    cfg.corruptProb = 0.1;
    const ChaosPlan a(cfg), b(cfg);
    bool any_injection = false;
    for (std::uint32_t slot = 0; slot < 4; ++slot)
        for (std::uint64_t w = 0; w < 128; ++w) {
            EXPECT_EQ(a.decide(slot, w), b.decide(slot, w))
                << "slot " << slot << " window " << w;
            any_injection |= a.decide(slot, w) != ChaosKind::None;
        }
    EXPECT_TRUE(any_injection) << "a 40% storm that never fires";

    // A different seed is a different storm.
    ChaosConfig other = cfg;
    other.seed = 43;
    const ChaosPlan c(other);
    bool any_diff = false;
    for (std::uint32_t slot = 0; slot < 4 && !any_diff; ++slot)
        for (std::uint64_t w = 0; w < 128 && !any_diff; ++w)
            any_diff = a.decide(slot, w) != c.decide(slot, w);
    EXPECT_TRUE(any_diff);
}

TEST(ChaosPlan, TargetsAndInjectionCapAreHonored)
{
    ChaosConfig cfg;
    cfg.seed = 7;
    cfg.throwProb = 1.0;
    cfg.targetSlots = {1};
    cfg.maxInjectionsPerSlot = 3;
    const ChaosPlan plan(cfg);
    for (std::uint64_t w = 0; w < 32; ++w)
        EXPECT_EQ(plan.decide(0, w), ChaosKind::None) << "untargeted slot";
    unsigned injected = 0;
    for (std::uint64_t w = 0; w < 32; ++w)
        if (plan.decide(1, w) != ChaosKind::None)
            ++injected;
    EXPECT_EQ(injected, 3u) << "cap must bound the storm per slot";
    // The capped verdicts are themselves replayable.
    EXPECT_NE(plan.decide(1, 0), ChaosKind::None);
    EXPECT_EQ(plan.decide(1, 10), ChaosKind::None);
}

TEST(ChaosService, InjectedExceptionRecoversOnSpare)
{
    ChaosConfig storm;
    storm.seed = 11;
    storm.throwProb = 1.0;
    storm.targetSlots = {0, 1}; // primaries only; the spare stays clean
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedMatchService sharded(
        chaosShardConfig(2, 1),
        makeChaosLadderFactory(plan, softwareFactory()));

    const auto req = randomRequest(0xE1, 300, 5);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_EQ(resp.result, expected(req));
    EXPECT_GT(plan->injections(), 0u);
    EXPECT_TRUE(hasErrorKind(sharded.lastShardErrors(),
                             ShardFaultKind::Exception));
    const telem::Snapshot snap = sharded.metricsSnapshot();
    EXPECT_GE(snap.counterValue("sharded.shard_exceptions"), 2u);
    EXPECT_GE(snap.counterValue("sharded.spare_serves"), 2u);
}

TEST(ChaosService, FailoverEventsRecordTheSliceTextSpan)
{
    // Slot 1 throws on every serve; its slice fails over to the spare.
    // The failover record locates the slice in the request's text, as
    // the overlap-mismatch record does, not by its slice index.
    ChaosConfig storm;
    storm.seed = 12;
    storm.throwProb = 1.0;
    storm.targetSlots = {1};
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedMatchService sharded(
        chaosShardConfig(2, 1),
        makeChaosLadderFactory(plan, softwareFactory()));

    const auto req = randomRequest(0xE7, 301, 5);
    ASSERT_TRUE(sharded.serve(req).ok());
    std::size_t failovers = 0;
    for (const telem::EventRecord &ev : sharded.flightRecorder().events()) {
        if (ev.kind != telem::EventKind::ShardFailover)
            continue;
        ++failovers;
        EXPECT_EQ(ev.shard, 1u);
        EXPECT_EQ(ev.requestId, req.id);
        EXPECT_EQ(ev.offset, 150u); // slice 1 answers [150, 301)
        EXPECT_EQ(ev.length, 151u);
        // Its case is the slice's window: the k-1 = 4 warm-up chars
        // before the slice, the slice and the 0-char right extension.
        const std::optional<conformance::Case> c =
            conformance::decodeCase(ev.caseRef.render());
        ASSERT_TRUE(c.has_value());
        EXPECT_EQ(c->text, std::vector<Symbol>(req.text.begin() + 146,
                                               req.text.end()));
    }
    EXPECT_EQ(failovers, 1u);
}

TEST(ChaosService, ExceptionWithoutSparesFailsTyped)
{
    ChaosConfig storm;
    storm.seed = 12;
    storm.throwProb = 1.0;
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedConfig cfg = chaosShardConfig(2, 0);
    ShardedMatchService sharded(
        cfg, makeChaosLadderFactory(plan, softwareFactory()));

    const auto req = randomRequest(0xE2, 300, 5);
    const MatchResponse resp = sharded.serve(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::ShardFailed);
    EXPECT_NE(resp.error.detail.find("unrecovered"), std::string::npos)
        << resp.error.detail;
    EXPECT_TRUE(resp.result.empty()) << "no partial bits on failure";
}

TEST(ChaosService, StallTripsWatchdogAndFailsOverToSpare)
{
    ChaosConfig storm;
    storm.seed = 13;
    storm.stallProb = 1.0;
    storm.targetSlots = {0, 1};
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedMatchService sharded(
        chaosShardConfig(2, 1),
        makeChaosLadderFactory(plan, softwareFactory()));

    const auto req = randomRequest(0xE3, 300, 5);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_EQ(resp.result, expected(req));
    // The stall exhausted the (single-rung) ladder on both primaries;
    // the spare served the retries honestly.
    EXPECT_GE(sharded.metricsSnapshot().counterValue("sharded.shard_retries"),
              2u);
    EXPECT_TRUE(hasErrorKind(sharded.lastShardErrors(),
                             ShardFaultKind::ServeError));
}

TEST(ChaosService, HangIsAbandonedAtDeadlineAndServedBySpare)
{
    ChaosConfig storm;
    storm.seed = 14;
    storm.hangProb = 1.0;
    storm.hangMs = 80;
    storm.targetSlots = {0, 1};
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedConfig cfg = chaosShardConfig(2, 1);
    cfg.batchDeadlineMs = 20;
    ShardedMatchService sharded(
        cfg, makeChaosLadderFactory(plan, softwareFactory()));

    const auto req = randomRequest(0xE4, 60, 5);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_EQ(resp.result, expected(req))
        << "late straggler results must be discarded, not stitched";
    EXPECT_TRUE(
        hasErrorKind(sharded.lastShardErrors(), ShardFaultKind::Timeout));
    EXPECT_GE(sharded.metricsSnapshot().counterValue("sharded.shard_timeouts"),
              1u);

    // Both primaries are still leased to their sleeping stragglers;
    // the very next request routes around the wedged pool entirely
    // (forced onto the spare) and still answers correctly.
    const MatchResponse again = sharded.serve(req);
    ASSERT_TRUE(again.ok()) << again.error.detail;
    EXPECT_EQ(again.result, expected(req));
}

TEST(ChaosService, AbandonedStragglerOutlivesItsRequest)
{
    // Each primary sleeps once, past the deadline, then streams the
    // rest of its slice after serve() has returned and the request is
    // gone: a straggler reads only the wave's own copy of the text
    // (AddressSanitizer flags any read of the dropped request).
    ChaosConfig storm;
    storm.seed = 14;
    storm.hangProb = 1.0;
    storm.hangMs = 80;
    storm.targetSlots = {0, 1};
    storm.maxInjectionsPerSlot = 1;
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedConfig cfg = chaosShardConfig(2, 1);
    cfg.batchDeadlineMs = 20;
    ShardedMatchService sharded(
        cfg, makeChaosLadderFactory(plan, softwareFactory()));

    auto req = std::make_unique<MatchRequest>(randomRequest(0xE5, 120, 5));
    const BitVec want = expected(*req);
    const MatchResponse resp = sharded.serve(*req);
    req.reset();
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_EQ(resp.result, want);
    EXPECT_TRUE(
        hasErrorKind(sharded.lastShardErrors(), ShardFaultKind::Timeout));

    // Outwait the stragglers; the pool then serves the next request
    // with both primaries back.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(2 * storm.hangMs));
    const MatchRequest next = randomRequest(0xE6, 120, 5);
    const MatchResponse again = sharded.serve(next);
    ASSERT_TRUE(again.ok()) << again.error.detail;
    EXPECT_EQ(again.result, expected(next));
}

TEST(ChaosService, HungOneSliceRequestReturnsAtTheDeadline)
{
    // A request too short to split still runs on the pool: a dead
    // worker spends no beats, so only the batch deadline bounds it.
    // Slot 0 sleeps 400 ms; the call returns after the 50 ms deadline
    // plus one retry on the spare, with exact bits.
    ChaosConfig storm;
    storm.seed = 17;
    storm.hangProb = 1.0;
    storm.hangMs = 400;
    storm.targetSlots = {0, 1};
    storm.maxInjectionsPerSlot = 1;
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedConfig cfg = chaosShardConfig(2, 1);
    cfg.minShardChars = 256;
    cfg.batchDeadlineMs = 50;
    ShardedMatchService sharded(
        cfg, makeChaosLadderFactory(plan, softwareFactory()));

    const auto req = randomRequest(0xE8, 100, 4);
    const auto t0 = std::chrono::steady_clock::now();
    const MatchResponse resp = sharded.serve(req);
    const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count();
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_EQ(resp.result, expected(req));
    EXPECT_EQ(sharded.lastShards(), 1u);
    EXPECT_TRUE(
        hasErrorKind(sharded.lastShardErrors(), ShardFaultKind::Timeout));
    EXPECT_LT(ms, 300) << "the hung slice was waited on, not abandoned";
}

TEST(ChaosService, QuarantineOpensProbesHalfOpenAndHeals)
{
    // Slot 0 throws on its first four windows, then behaves: three
    // failures quarantine it, the first half-open probe eight batches
    // later fails (fourth injection), the second probe succeeds and
    // closes the breaker.
    ChaosConfig storm;
    storm.seed = 15;
    storm.throwProb = 1.0;
    storm.targetSlots = {0};
    storm.maxInjectionsPerSlot = 4;
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedConfig cfg = chaosShardConfig(2, 1);
    cfg.minShardChars = 256; // single-shard requests, always slot 0 first
    ShardedMatchService sharded(
        cfg, makeChaosLadderFactory(plan, softwareFactory()));

    const auto req = randomRequest(0xE5, 100, 4);
    const BitVec want = expected(req);
    const auto serveOk = [&] {
        const MatchResponse r = sharded.serve(req);
        ASSERT_TRUE(r.ok()) << r.error.detail;
        EXPECT_EQ(r.result, want);
    };

    // Serves 1-3: slot 0 throws, spare recovers, breaker opens.
    for (int i = 0; i < 3; ++i)
        serveOk();
    EXPECT_EQ(sharded.breakerState(0), BreakerState::Open);

    // Serves 4-10: the quarantined slot is skipped; slot 1 serves
    // honestly.
    for (int i = 4; i <= 10; ++i) {
        serveOk();
        EXPECT_TRUE(sharded.lastShardErrors().empty());
        EXPECT_EQ(sharded.breakerState(0), BreakerState::Open);
    }

    // Serve 11: half-open probe on slot 0 fails (last injection);
    // straight back to quarantine, request still recovered.
    serveOk();
    EXPECT_FALSE(sharded.lastShardErrors().empty());
    EXPECT_EQ(sharded.breakerState(0), BreakerState::Open);

    // Serves 12-18 route around; serve 19 probes again -- the storm
    // is spent, the probe succeeds, the breaker closes.
    for (int i = 12; i <= 18; ++i)
        serveOk();
    EXPECT_EQ(sharded.breakerState(0), BreakerState::Open);
    serveOk();
    EXPECT_TRUE(sharded.lastShardErrors().empty());
    EXPECT_EQ(sharded.breakerState(0), BreakerState::Closed);

    const telem::Snapshot snap = sharded.metricsSnapshot();
    EXPECT_EQ(snap.counterValue("sharded.quarantines"), 2u);
    EXPECT_EQ(snap.counterValue("sharded.probes"), 2u);
}

TEST(ChaosService, SilentCorruptionIsCaughtByOverlapCheckAndRepaired)
{
    // Corrupt the first *kept* bit of slice 1's first window (index
    // k-1 = 4): with the per-chunk reference cross-check off, only
    // the overlap cross-check stands between this and wrong bits.
    ChaosConfig storm;
    storm.seed = 16;
    storm.corruptProb = 1.0;
    storm.maxInjectionsPerSlot = 1;
    storm.targetSlots = {1};
    storm.corruptAt = 4;
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedConfig cfg = chaosShardConfig(2, 1);
    cfg.base.crossCheck = false;
    ShardedMatchService sharded(
        cfg, makeChaosLadderFactory(plan, softwareFactory()));
    std::string dump;
    sharded.flightRecorder().setDumpSink(
        [&dump](const std::string &d) { dump = d; });

    const auto req = randomRequest(0xE6, 300, 5);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_EQ(resp.result, expected(req))
        << "repair must re-serve both suspects honestly";
    EXPECT_EQ(plan->injections(), 1u);
    EXPECT_TRUE(hasErrorKind(sharded.lastShardErrors(),
                             ShardFaultKind::OverlapMismatch));

    const telem::Snapshot snap = sharded.metricsSnapshot();
    EXPECT_GE(snap.counterValue("sharded.overlap_checks"), 1u);
    EXPECT_EQ(snap.counterValue("sharded.overlap_mismatches"), 1u);

    // The mismatch tripped a flight dump carrying a replayable case.
    EXPECT_EQ(sharded.flightRecorder().tripCount(), 1u);
    EXPECT_NE(dump.find("overlap mismatch"), std::string::npos) << dump;
    bool found_case = false;
    for (const telem::EventRecord &ev : sharded.flightRecorder().events())
        if (ev.kind == telem::EventKind::OverlapMismatch) {
            EXPECT_EQ(ev.caseRef.render().rfind("l1:", 0), 0u);
            EXPECT_EQ(ev.offset, 150u); // slice 1 answers [150, 300)
            EXPECT_EQ(ev.length, 150u);
            found_case = true;
        }
    EXPECT_TRUE(found_case);
    sharded.flightRecorder().setDumpSink(nullptr);
}

TEST(ChaosService, TracedOverlapMismatchRecordsOneInstant)
{
    // The silent corruption above, traced: the overlap check's trip
    // is one instant in the trace, named for its event kind.
    ChaosConfig storm;
    storm.seed = 16;
    storm.corruptProb = 1.0;
    storm.maxInjectionsPerSlot = 1;
    storm.targetSlots = {1};
    storm.corruptAt = 4;
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedConfig cfg = chaosShardConfig(2, 1);
    cfg.base.crossCheck = false;
    ShardedMatchService sharded(
        cfg, makeChaosLadderFactory(plan, softwareFactory()));
    sharded.flightRecorder().setDumpSink([](const std::string &) {});

    const test::ScopedTrace trace;
    const auto req = randomRequest(0xE6, 300, 5);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;

    const auto instants = trace.named("overlap_mismatch");
    ASSERT_EQ(instants.size(), 1u);
    EXPECT_EQ(instants[0].phase, telem::SpanEvent::Phase::Instant);
    EXPECT_EQ(instants[0].arg, req.id);
    sharded.flightRecorder().setDumpSink(nullptr);
}

TEST(ChaosService, UnrepairableOverlapMismatchFailsTypedNotSilent)
{
    ChaosConfig storm;
    storm.seed = 17;
    storm.corruptProb = 1.0;
    storm.maxInjectionsPerSlot = 1;
    storm.targetSlots = {1};
    storm.corruptAt = 4;
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedConfig cfg = chaosShardConfig(2, 0); // no spares: no repair
    cfg.base.crossCheck = false;
    ShardedMatchService sharded(
        cfg, makeChaosLadderFactory(plan, softwareFactory()));
    sharded.flightRecorder().setDumpSink([](const std::string &) {});

    const auto req = randomRequest(0xE7, 300, 5);
    const MatchResponse resp = sharded.serve(req);
    EXPECT_FALSE(resp.ok()) << "corrupt bits must never stitch as ok()";
    EXPECT_EQ(resp.error.code, ErrorCode::ShardFailed);
    EXPECT_NE(resp.error.detail.find("overlap mismatch"), std::string::npos)
        << resp.error.detail;
    EXPECT_TRUE(resp.result.empty());
    sharded.flightRecorder().setDumpSink(nullptr);
}

TEST(ChaosService, PoisonedGateRungIsContainedByLadderCrossCheck)
{
    // Hardware-true corruption: force the E16 hardest-undetected
    // stuck-at survivors onto the gate rung of both primaries. The
    // per-chunk reference cross-check (on by default) must contain
    // whatever those defects corrupt; the response stays exact.
    const auto sites = hardestUndetectedSites(8, 2, 4);
    if (sites.empty())
        GTEST_SKIP() << "fault grading left no undetected survivors";

    ChaosConfig storm; // no probabilistic injections; the poison rung
    storm.targetSlots = {0, 1};
    auto plan = std::make_shared<const ChaosPlan>(storm);
    ShardedConfig cfg = chaosShardConfig(2, 1);
    cfg.base.cells = 8;
    ShardedMatchService sharded(
        cfg, makeChaosLadderFactory(plan, softwareFactory(), sites));

    const auto req = randomRequest(0xE8, 96, 4);
    const MatchResponse resp = sharded.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.detail;
    EXPECT_EQ(resp.result, expected(req));
}

TEST(ChaosCampaign, MixedStormEndsWithZeroSilentCorruptionsAndNoHangs)
{
    ChaosCampaignConfig cc;
    cc.sharded = chaosShardConfig(4, 2);
    cc.sharded.minShardChars = 64;
    cc.sharded.batchDeadlineMs = 60;
    cc.sharded.base.crossCheck = true;
    cc.chaos.seed = 1979;
    cc.chaos.stallProb = 0.08;
    cc.chaos.hangProb = 0.02;
    cc.chaos.throwProb = 0.08;
    cc.chaos.corruptProb = 0.08;
    cc.chaos.hangMs = 150; // past the deadline: a real dead worker
    cc.chaos.targetSlots = {0, 1, 2, 3}; // spares are the clean harvest
    cc.innerFactory = softwareFactory();
    cc.requests = 10;
    cc.textLen = 400;
    cc.patternLen = 5;
    cc.seed = 2026;

    const ChaosCampaignReport rep = runChaosCampaign(cc);
    EXPECT_EQ(rep.requests, 10u);
    // The acceptance invariant: every fault recovered exactly or was
    // rejected typed. Returning at all proves no unbounded hang.
    EXPECT_EQ(rep.silentCorruptions, 0u);
    EXPECT_EQ(rep.okRequests, rep.exactRequests);
    EXPECT_EQ(rep.okRequests + rep.typedFailures, rep.requests);
    EXPECT_GT(rep.faultsInjected, 0u);
    EXPECT_GT(rep.okRequests, 0u) << "the storm should not zero availability";

    const std::string text = rep.renderText();
    EXPECT_NE(text.find("chaos.silent_corruptions = 0"), std::string::npos)
        << text;
    EXPECT_NE(text.find("chaos.availability_pct"), std::string::npos);
}

} // namespace
} // namespace spm::service
