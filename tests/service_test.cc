/**
 * @file
 * Tests for the resilient streaming match service: the typed error
 * taxonomy and request validation, the bounded admission queue under
 * all three backpressure policies, the beat-budget watchdog and
 * cancellation semantics, checkpoint/resume determinism, the
 * degradation ladder under injected faults, and journal determinism.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/behavioral.hh"
#include "core/reference.hh"
#include "fault/injector.hh"
#include "fault/model.hh"
#include "service/backend.hh"
#include "service/chaos.hh"
#include "service/checkpoint.hh"
#include "service/error.hh"
#include "service/queue.hh"
#include "service/service.hh"
#include "service/watchdog.hh"
#include "tests/helpers.hh"
#include "util/rng.hh"

namespace spm::service
{
namespace
{

/**
 * A deliberately wedged backend: it eats its entire beat budget
 * without ever producing a result, the way a fault that corrupts the
 * validity choreography starves the result stream.
 */
class WedgedBackend : public ServiceBackend
{
  public:
    std::string name() const override { return "wedged-fake"; }

    WindowResult matchWindow(const std::vector<Symbol> &,
                             const std::vector<Symbol> &,
                             BeatWatchdog &dog) override
    {
        WindowResult wr;
        while (dog.tick(1))
            ++wr.beats;
        wr.note = "wedged: consumed the whole budget";
        return wr;
    }
};

/** A backend that always answers all-true: silently wrong. */
class LyingBackend : public ServiceBackend
{
  public:
    std::string name() const override { return "lying-fake"; }

    WindowResult matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &,
                             BeatWatchdog &dog) override
    {
        WindowResult wr;
        wr.bits.resize(window.size(), true);
        wr.beats = window.size();
        dog.tick(wr.beats);
        wr.completed = true;
        return wr;
    }
};

ServiceConfig
smallConfig()
{
    ServiceConfig cfg;
    cfg.cells = 8;
    cfg.alphabetBits = 2;
    cfg.chunkChars = 16;
    cfg.queueCapacity = 2;
    return cfg;
}

std::vector<std::unique_ptr<ServiceBackend>>
behavioralLadder(std::size_t cells)
{
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<BehavioralBackend>(cells));
    ladder.push_back(std::make_unique<SoftwareBackend>());
    return ladder;
}

MatchRequest
seededRequest(std::uint64_t id, std::uint64_t seed, BitWidth bits,
              std::size_t text_len, std::size_t pattern_len,
              double wildcard_prob = 0.25)
{
    WorkloadGen gen(seed, bits);
    MatchRequest req;
    req.id = id;
    req.pattern = gen.randomPattern(pattern_len, wildcard_prob);
    req.text = gen.textWithPlants(text_len, req.pattern,
                                  pattern_len * 2 + 1);
    return req;
}

TEST(ServiceError, CodesHaveStableNames)
{
    EXPECT_STREQ(errorCodeName(ErrorCode::Ok), "ok");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidPattern),
                 "invalid_pattern");
    EXPECT_STREQ(errorCodeName(ErrorCode::AlphabetOverflow),
                 "alphabet_overflow");
    EXPECT_STREQ(errorCodeName(ErrorCode::OversizedRequest),
                 "oversized_request");
    EXPECT_STREQ(errorCodeName(ErrorCode::QueueOverflow),
                 "queue_overflow");
    EXPECT_STREQ(errorCodeName(ErrorCode::Shed), "shed");
    EXPECT_STREQ(errorCodeName(ErrorCode::DeadlineExceeded),
                 "deadline_exceeded");
    EXPECT_STREQ(errorCodeName(ErrorCode::BackendFailed),
                 "backend_failed");
    EXPECT_STREQ(errorCodeName(ErrorCode::Cancelled), "cancelled");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidCheckpoint),
                 "invalid_checkpoint");
    EXPECT_STREQ(errorCodeName(ErrorCode::InvalidDictionary),
                 "invalid_dictionary");

    const ServiceError e =
        ServiceError::make(ErrorCode::Shed, "queue full");
    EXPECT_TRUE(bool(e));
    EXPECT_EQ(e.toString(), "shed: queue full");
    EXPECT_FALSE(bool(ServiceError::ok()));
}

TEST(ServiceValidation, TypedRejections)
{
    MatchService svc(smallConfig(), behavioralLadder(8));

    MatchRequest req;
    req.text = {0, 1, 2};
    auto err = svc.validate(req); // empty pattern
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::InvalidPattern);

    req.pattern = {0, 3}; // fine
    EXPECT_FALSE(svc.validate(req).has_value());

    req.text = {0, 1, 7}; // 7 outside 2-bit alphabet
    err = svc.validate(req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::AlphabetOverflow);

    req.text = {0, 1, 2};
    req.pattern = {0, 9}; // 9 outside alphabet, not the wild card
    err = svc.validate(req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::AlphabetOverflow);

    req.pattern = {0, wildcardSymbol}; // wild card is always legal
    EXPECT_FALSE(svc.validate(req).has_value());

    ServiceConfig tiny = smallConfig();
    tiny.maxTextLen = 4;
    tiny.maxPatternLen = 2;
    MatchService bounded(tiny, behavioralLadder(8));
    req.text = {0, 1, 2, 3, 0};
    req.pattern = {0, 1};
    err = bounded.validate(req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::OversizedRequest);

    req.text = {0, 1};
    req.pattern = {0, 1, 2};
    err = bounded.validate(req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::OversizedRequest);

    // An invalid request is refused at submit() without queueing.
    MatchRequest bad;
    bad.id = 42;
    auto sub = bounded.submit(bad);
    EXPECT_FALSE(sub.accepted);
    EXPECT_EQ(sub.error.code, ErrorCode::InvalidPattern);
    EXPECT_EQ(bounded.queuedRequests(), 0u);
}

TEST(ServiceMatch, AgreesWithReferenceOnSeededWorkloads)
{
    core::ReferenceMatcher ref;
    for (std::uint64_t i = 0; i < 12; ++i) {
        const test::Workload w = test::makeWorkload(i);
        ServiceConfig cfg = smallConfig();
        cfg.alphabetBits = w.bits;
        // Size the array (even cell count) and the pattern limit to
        // the workload so no request degrades off the systolic rung.
        const std::size_t k = w.pattern.size();
        cfg.cells = std::max<std::size_t>(16, k + k % 2);
        cfg.maxPatternLen = std::max<std::size_t>(cfg.maxPatternLen, k);
        cfg.chunkChars = 8 + i % 13;
        MatchService svc(cfg, behavioralLadder(cfg.cells));

        MatchRequest req;
        req.id = i;
        req.text = w.text;
        req.pattern = w.pattern;
        const MatchResponse resp = svc.serve(req);
        ASSERT_TRUE(resp.ok()) << resp.error.toString();
        EXPECT_EQ(resp.result, ref.match(w.text, w.pattern))
            << "workload " << i;
        EXPECT_EQ(resp.degradations, 0u);
        EXPECT_EQ(resp.backend, "systolic-behavioral");
        EXPECT_GT(resp.chunks, 0u);
    }
}

TEST(ServiceMatch, EmptyTextServesEmptyResult)
{
    MatchService svc(smallConfig(), behavioralLadder(8));
    MatchRequest req;
    req.pattern = {0, 1};
    const MatchResponse resp = svc.serve(req);
    EXPECT_TRUE(resp.ok());
    EXPECT_TRUE(resp.result.empty());
}

TEST(ServiceMatch, DefaultLadderStartsAtGateLevel)
{
    ServiceConfig cfg = smallConfig();
    cfg.chunkChars = 12;
    MatchService svc(cfg); // default ladder: gate -> behavioral -> sw
    const auto names = svc.ladderNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "systolic-gatelevel");
    EXPECT_EQ(names[1], "systolic-behavioral");
    EXPECT_EQ(names[2], "software-baseline");

    const MatchRequest req = seededRequest(1, 7, 2, 24, 3);
    const MatchResponse resp = svc.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.toString();
    EXPECT_EQ(resp.backend, "systolic-gatelevel");
    EXPECT_EQ(resp.result,
              core::ReferenceMatcher().match(req.text, req.pattern));
}

TEST(ServiceMatch, WideAlphabetSkipsTheGateRungWithoutDegrading)
{
    // GateChip builds 1..8 comparator rows. At 12 bits the gate rung
    // must decline the shape up front (skip, reason=unsupported), not
    // panic on every window and count a ladder fall.
    ServiceConfig cfg = smallConfig();
    cfg.alphabetBits = 12;
    MatchService svc(cfg);
    for (const std::uint64_t id : {1u, 2u}) {
        const MatchRequest req = seededRequest(id, 40 + id, 12, 48, 4);
        const MatchResponse resp = svc.serve(req);
        ASSERT_TRUE(resp.ok()) << resp.error.toString();
        EXPECT_EQ(resp.backend, "systolic-behavioral");
        EXPECT_EQ(resp.degradations, 0u);
        EXPECT_EQ(resp.result,
                  core::ReferenceMatcher().match(req.text, req.pattern));
    }
    EXPECT_EQ(svc.stats().counter("degradations").value(), 0u);
    EXPECT_EQ(svc.flightRecorder().tripCount(), 0u);
    for (const telem::EventRecord &ev : svc.flightRecorder().events())
        EXPECT_NE(ev.kind, telem::EventKind::LadderTransition);
    EXPECT_NE(svc.journal().dump().find("reason=unsupported"),
              std::string::npos);
}

/**
 * A rung decorator that forwards everything but prefetch(), so the
 * wrapped gate rung serves one window at a time.
 */
class OneWindowAtATime : public ServiceBackend
{
  public:
    explicit OneWindowAtATime(std::unique_ptr<ServiceBackend> rung)
        : inner(std::move(rung))
    {
    }

    std::string name() const override { return inner->name(); }

    bool supports(const std::vector<Symbol> &pattern) const override
    {
        return inner->supports(pattern);
    }

    WindowResult matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &pattern,
                             BeatWatchdog &dog) override
    {
        return inner->matchWindow(window, pattern, dog);
    }

  private:
    std::unique_ptr<ServiceBackend> inner;
};

/**
 * A rung decorator that forwards everything, prefetch() included, and
 * flips the last result bit of its @p flip_at-th matchWindow() call
 * (counting from 0): one transient fault, which the cross-check
 * catches and the re-run clears.
 */
class OneTransientFlip : public ServiceBackend
{
  public:
    OneTransientFlip(std::unique_ptr<ServiceBackend> rung,
                     std::size_t flip_at)
        : inner(std::move(rung)), flipAt(flip_at)
    {
    }

    std::string name() const override { return inner->name(); }

    bool supports(const std::vector<Symbol> &pattern) const override
    {
        return inner->supports(pattern);
    }

    void prefetch(const std::vector<std::span<const Symbol>> &windows,
                  const std::vector<Symbol> &pattern) override
    {
        inner->prefetch(windows, pattern);
    }

    WindowResult matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &pattern,
                             BeatWatchdog &dog) override
    {
        WindowResult wr = inner->matchWindow(window, pattern, dog);
        if (calls++ == flipAt && wr.completed && !wr.bits.empty())
            wr.bits.set(wr.bits.size() - 1,
                        !wr.bits.get(wr.bits.size() - 1));
        return wr;
    }

    /** matchWindow() calls so far. */
    std::size_t calls = 0;

  private:
    std::unique_ptr<ServiceBackend> inner;
    std::size_t flipAt;
};

/**
 * The default ladder, optionally behind a poisoned gate rung, with
 * every gate rung served one window at a time when @p one_window.
 * @p lanes collects the lane-serving gate rungs. With @p flip_at set,
 * every gate rung also sits behind a OneTransientFlip, collected in
 * @p flips.
 */
std::vector<std::unique_ptr<ServiceBackend>>
gateLadder(const ServiceConfig &cfg, bool one_window,
           const std::vector<fault::FaultSite> &poison,
           std::vector<const GateBackend *> &lanes,
           std::optional<std::size_t> flip_at = std::nullopt,
           std::vector<const OneTransientFlip *> *flips = nullptr)
{
    std::vector<std::unique_ptr<ServiceBackend>> ladder =
        makeDefaultLadder(cfg);
    if (!poison.empty())
        ladder.insert(ladder.begin(), makePoisonedGateBackend(cfg, poison));
    for (auto &rung : ladder) {
        const auto *gate = dynamic_cast<const GateBackend *>(rung.get());
        if (gate == nullptr)
            continue;
        if (one_window)
            rung = std::make_unique<OneWindowAtATime>(std::move(rung));
        else
            lanes.push_back(gate);
        if (flip_at) {
            auto flip =
                std::make_unique<OneTransientFlip>(std::move(rung), *flip_at);
            flips->push_back(flip.get());
            rung = std::move(flip);
        }
    }
    return ladder;
}

/** Serving observables that must not depend on how the rung runs. */
void
expectSameServing(const MatchService &lanes, const MatchResponse &got,
                  const MatchService &scalar, const MatchResponse &want)
{
    EXPECT_EQ(got.error.code, want.error.code);
    EXPECT_EQ(got.error.detail, want.error.detail);
    EXPECT_EQ(got.result, want.result);
    EXPECT_EQ(got.beats, want.beats);
    EXPECT_EQ(got.chunks, want.chunks);
    EXPECT_EQ(got.backend, want.backend);
    EXPECT_EQ(got.degradations, want.degradations);
    EXPECT_EQ(got.watchdogTrips, want.watchdogTrips);
    EXPECT_EQ(got.crossCheckFailures, want.crossCheckFailures);
    EXPECT_EQ(got.resumed, want.resumed);
    EXPECT_EQ(lanes.journal().dump(), scalar.journal().dump());
    for (const char *name :
         {"served", "completed", "failed", "degradations", "watchdogTrips",
          "crossCheckFailures", "checkpoints", "resumes"})
        EXPECT_EQ(lanes.stats().counter(name).value(),
                  scalar.stats().counter(name).value())
            << name;
    EXPECT_EQ(lanes.config().bus.statsDump(), scalar.config().bus.statsDump());
    const auto lane_events = lanes.flightRecorder().events();
    const auto scalar_events = scalar.flightRecorder().events();
    ASSERT_EQ(lane_events.size(), scalar_events.size());
    for (std::size_t i = 0; i < lane_events.size(); ++i)
        EXPECT_EQ(lanes.flightRecorder().render(lane_events[i]),
                  scalar.flightRecorder().render(scalar_events[i]));
}

/** The paper_chip request shape: 512 chars, k = 8, 2-bit alphabet. */
MatchRequest
chipRequest(std::uint64_t id, std::uint64_t seed)
{
    return seededRequest(id, seed, 2, 512, 8, 0.12);
}

/** A lane ladder and a one-window ladder side by side. */
struct LadderPair
{
    explicit LadderPair(const ServiceConfig &cfg,
                        const std::vector<fault::FaultSite> &poison = {})
        : lanes(cfg, gateLadder(cfg, false, poison, laneRungs)),
          scalar(cfg, gateLadder(cfg, true, poison, unused))
    {
        lanes.flightRecorder().setDumpSink([](const std::string &) {});
        scalar.flightRecorder().setDumpSink([](const std::string &) {});
    }

    std::uint64_t laneWindows() const
    {
        std::uint64_t n = 0;
        for (const GateBackend *rung : laneRungs)
            n += rung->laneWindows();
        return n;
    }

    std::vector<const GateBackend *> laneRungs, unused;
    MatchService lanes;
    MatchService scalar;
};

TEST(LaneGateRung, PlainRequestsServeIdentically)
{
    LadderPair pair{ServiceConfig{}};
    for (std::uint64_t id = 0; id < 2; ++id) {
        const MatchRequest req = chipRequest(id, 0x5EED + id);
        const MatchResponse got = pair.lanes.serve(req);
        const MatchResponse want = pair.scalar.serve(req);
        ASSERT_TRUE(want.ok()) << want.error.toString();
        EXPECT_EQ(want.backend, "systolic-gatelevel");
        EXPECT_EQ(want.chunks, 16u);
        expectSameServing(pair.lanes, got, pair.scalar, want);
    }
    EXPECT_EQ(pair.laneWindows(), 32u) << "every window rode a lane";
}

TEST(LaneGateRung, ResumedRequestServesIdentically)
{
    const ServiceConfig cfg;
    const MatchRequest req = chipRequest(3, 0xCAFE);
    LadderPair killed{cfg};
    StreamSession session = killed.lanes.startSession(req);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(session.step());
    const Checkpoint cp = session.checkpoint();
    session.cancel("killed by test");
    session.finish();

    LadderPair pair{cfg};
    const MatchResponse got = pair.lanes.resume(req, cp);
    const MatchResponse want = pair.scalar.resume(req, cp);
    ASSERT_TRUE(want.ok()) << want.error.toString();
    EXPECT_TRUE(want.resumed);
    EXPECT_EQ(want.chunks, 11u);
    EXPECT_EQ(want.result,
              core::ReferenceMatcher().match(req.text, req.pattern));
    expectSameServing(pair.lanes, got, pair.scalar, want);
    EXPECT_EQ(pair.laneWindows(), 11u);
}

TEST(LaneGateRung, TransientMismatchRerunsOnlyThatWindowAlone)
{
    // The fourth window's answer is flipped once: the cross-check
    // catches it, the re-run of that window runs alone and clears it,
    // and every later window of the pass still rides its lane.
    const ServiceConfig cfg;
    std::vector<const GateBackend *> lane_rungs, unused;
    std::vector<const OneTransientFlip *> lane_flips, scalar_flips;
    MatchService lanes(cfg,
                       gateLadder(cfg, false, {}, lane_rungs, 3, &lane_flips));
    MatchService scalar(cfg,
                        gateLadder(cfg, true, {}, unused, 3, &scalar_flips));
    lanes.flightRecorder().setDumpSink([](const std::string &) {});
    scalar.flightRecorder().setDumpSink([](const std::string &) {});

    const MatchRequest req = chipRequest(5, 0x7A45);
    const MatchResponse got = lanes.serve(req);
    const MatchResponse want = scalar.serve(req);
    ASSERT_TRUE(want.ok()) << want.error.toString();
    EXPECT_EQ(want.crossCheckFailures, 1u);
    EXPECT_EQ(want.degradations, 0u);
    EXPECT_EQ(want.backend, "systolic-gatelevel");
    EXPECT_EQ(want.result,
              core::ReferenceMatcher().match(req.text, req.pattern));
    expectSameServing(lanes, got, scalar, want);

    ASSERT_EQ(lane_rungs.size(), 1u);
    ASSERT_EQ(lane_flips.size(), 1u);
    EXPECT_EQ(lane_flips[0]->calls, want.chunks + 1)
        << "every window once, plus the re-run";
    EXPECT_EQ(lane_rungs[0]->laneWindows(), lane_flips[0]->calls - 1)
        << "only the re-run ran alone";
}

TEST(LaneGateRung, DeadlineRunsOutIdentically)
{
    LadderPair pair{ServiceConfig{}};
    MatchRequest req = chipRequest(4, 0xD1E);
    // About five and a half windows of gate beats: the sixth window
    // trips its watchdog on the gate rung mid-request.
    req.deadlineBeats = 650;
    const MatchResponse got = pair.lanes.serve(req);
    const MatchResponse want = pair.scalar.serve(req);
    EXPECT_EQ(want.error.code, ErrorCode::DeadlineExceeded);
    EXPECT_GT(want.watchdogTrips, 0u);
    EXPECT_GT(want.chunks, 0u);
    expectSameServing(pair.lanes, got, pair.scalar, want);
    EXPECT_GT(pair.laneWindows(), 0u);
}

TEST(LaneGateRung, PoisonedRungFallsIdentically)
{
    // The E16 hardest-undetected stuck-at sites on a gate rung ahead
    // of the default ladder: it serves some windows, mismatches the
    // cross-check, re-runs, burns its fault budget and falls.
    const ServiceConfig cfg;
    const std::vector<fault::FaultSite> sites =
        hardestUndetectedSites(cfg.cells, cfg.alphabetBits, 4);
    ASSERT_FALSE(sites.empty());
    LadderPair pair{cfg, sites};
    bool fell_partway = false;
    for (std::uint64_t id = 0; id < 6 && !fell_partway; ++id) {
        const MatchRequest req = chipRequest(10 + id, 0xB0 + id);
        const MatchResponse got = pair.lanes.serve(req);
        const MatchResponse want = pair.scalar.serve(req);
        ASSERT_TRUE(want.ok()) << want.error.toString();
        expectSameServing(pair.lanes, got, pair.scalar, want);
        fell_partway = want.degradations > 0 &&
                       want.crossCheckFailures > 0 &&
                       pair.scalar.journal().dump().find(
                           "rung=systolic-gatelevel-poisoned beats=") !=
                           std::string::npos;
    }
    EXPECT_TRUE(fell_partway)
        << "no request made the poisoned rung mismatch and fall";
    EXPECT_GT(pair.laneWindows(), 0u);
}

/**
 * The journal, flight-ring and flight-dump renders of a scripted
 * serving mix -- a clean serve, a resume from offset 160, a deadline
 * trip, shed-oldest admission, a validation reject and a poisoned
 * rung's fall -- byte for byte against tests/golden/service_journal.txt.
 * On a mismatch the rendered text is written next to the test binary;
 * after an intended format change, copy it over the golden.
 */
TEST(ServiceJournal, ScriptedMixMatchesGolden)
{
    ServiceConfig cfg;
    cfg.queueCapacity = 2;
    cfg.policy = BackpressurePolicy::ShedOldest;
    std::string dumps;
    const auto render = [&](MatchService &svc, const std::string &title) {
        std::string out = "== " + title + " journal ==\n" +
                          svc.journal().dump() + "== " + title +
                          " flight ring ==\n";
        for (const telem::EventRecord &ev : svc.flightRecorder().events())
            out += svc.flightRecorder().render(ev) + "\n";
        return out;
    };
    const auto sinkInto = [&](MatchService &svc) {
        svc.flightRecorder().setDumpSink(
            [&](const std::string &d) { dumps += d + "\n"; });
    };

    MatchService svc(cfg);
    sinkInto(svc);
    EXPECT_TRUE(svc.serve(chipRequest(1, 0x5EED)).ok());

    const MatchRequest req = chipRequest(2, 0xCAFE);
    StreamSession session = svc.startSession(req);
    for (int i = 0; i < 5; ++i)
        ASSERT_TRUE(session.step());
    const Checkpoint cp = session.checkpoint();
    ASSERT_EQ(cp.offset, 160u);
    session.cancel("killed by test");
    session.finish();
    EXPECT_TRUE(svc.resume(req, cp).ok());

    MatchRequest late = chipRequest(3, 0xD1E);
    late.deadlineBeats = 650;
    EXPECT_EQ(svc.serve(late).error.code, ErrorCode::DeadlineExceeded);

    for (std::uint64_t id = 4; id <= 6; ++id)
        EXPECT_TRUE(svc.submit(chipRequest(id, 0x40 + id)).accepted);
    EXPECT_EQ(svc.drain().size(), 2u);

    MatchRequest bad = chipRequest(7, 0x77);
    bad.text[3] = 9;
    EXPECT_FALSE(svc.submit(bad).accepted);

    std::vector<std::unique_ptr<ServiceBackend>> poisoned =
        makeDefaultLadder(cfg);
    poisoned.insert(poisoned.begin(),
                    makePoisonedGateBackend(
                        cfg, hardestUndetectedSites(cfg.cells,
                                                    cfg.alphabetBits, 4)));
    MatchService fall(cfg, std::move(poisoned));
    sinkInto(fall);
    for (std::uint64_t id = 10; id < 13; ++id)
        fall.serve(chipRequest(id, 0xB0 + id));
    EXPECT_GT(fall.stats().counter("degradations").value(), 0u);

    const std::string got = render(svc, "service") +
                            render(fall, "poisoned") +
                            "== flight dumps ==\n" + dumps;
    const std::string path =
        std::string(SPM_GOLDEN_DIR) + "/service_journal.txt";
    std::ifstream in(path);
    const std::string want((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (got != want) {
        const std::string actual =
            std::string(SPM_GOLDEN_OUT) + "/service_journal.actual.txt";
        std::ofstream(actual) << got;
        ADD_FAILURE() << "render differs from " << path
                      << "; this run's render is in " << actual;
    }
}

TEST(Watchdog, TripsOnceArmedBudgetIsExhausted)
{
    BeatWatchdog dog(10);
    for (int i = 0; i < 10; ++i)
        EXPECT_TRUE(dog.tick(1));
    EXPECT_FALSE(dog.tripped());
    EXPECT_FALSE(dog.tick(1));
    EXPECT_TRUE(dog.tripped());
    EXPECT_EQ(dog.trips(), 1u);

    dog.arm(5);
    EXPECT_FALSE(dog.tripped());
    EXPECT_FALSE(dog.tick(6));
    EXPECT_EQ(dog.trips(), 2u);
}

TEST(Watchdog, WedgedBackendIsCancelledWithinBudget)
{
    // A ladder with only the wedged rung: the watchdog must cancel
    // within the armed beat budget and return deadline_exceeded.
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<WedgedBackend>());
    const ServiceConfig cfg = smallConfig();
    MatchService svc(cfg, std::move(ladder));

    const MatchRequest req = seededRequest(9, 11, 2, 40, 4);
    const MatchResponse resp = svc.serve(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::DeadlineExceeded);
    EXPECT_GE(resp.watchdogTrips, 1u);

    // The cancellation consumed no more than the armed budget: the
    // per-window budget is margin * (2w + cells + k + bits + 8).
    const Beat budget = static_cast<Beat>(
        1.5 * (2.0 * (cfg.chunkChars + req.pattern.size() - 1) +
               cfg.cells + req.pattern.size() + cfg.alphabetBits + 8));
    EXPECT_LE(resp.beats, budget + 1);
}

TEST(Watchdog, ServiceServesNextRequestAfterCancellation)
{
    // Wedged primary, healthy floor: the first request degrades and
    // completes; a ladder of only the wedge fails the request but the
    // *service* stays up and serves the next one.
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<WedgedBackend>());
    ladder.push_back(std::make_unique<SoftwareBackend>());
    MatchService svc(smallConfig(), std::move(ladder));

    const MatchRequest req = seededRequest(1, 23, 2, 40, 4);
    const MatchResponse first = svc.serve(req);
    ASSERT_TRUE(first.ok()) << first.error.toString();
    EXPECT_EQ(first.backend, "software-baseline");
    EXPECT_GE(first.degradations, 1u);
    EXPECT_EQ(first.result,
              core::ReferenceMatcher().match(req.text, req.pattern));

    const MatchRequest req2 = seededRequest(2, 29, 2, 32, 3);
    const MatchResponse second = svc.serve(req2);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(second.result,
              core::ReferenceMatcher().match(req2.text, req2.pattern));
}

TEST(Ladder, LyingBackendNeverCorruptsSilently)
{
    // The lying rung answers instantly but wrongly; the cross-check
    // must catch every chunk and the request must degrade to the
    // software floor with a correct final result.
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<LyingBackend>());
    ladder.push_back(std::make_unique<SoftwareBackend>());
    MatchService svc(smallConfig(), std::move(ladder));

    const MatchRequest req = seededRequest(5, 31, 2, 48, 4);
    const MatchResponse resp = svc.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.toString();
    EXPECT_EQ(resp.backend, "software-baseline");
    EXPECT_GE(resp.crossCheckFailures, 2u); // budget + the last straw
    EXPECT_GE(resp.degradations, 1u);
    EXPECT_EQ(resp.result,
              core::ReferenceMatcher().match(req.text, req.pattern));
}

TEST(Ladder, InjectedPermanentFaultDegradesToSoftware)
{
    // A stuck-at-1 compare latch makes the behavioral rung lie; the
    // cross-check burns its fault budget and the service falls to the
    // software floor, still answering correctly.
    fault::FaultInjector inj(2);
    fault::Fault f;
    f.kind = fault::FaultKind::StuckAt1;
    f.point = systolic::FaultPoint::CompareLatch;
    f.cell = 1;
    inj.addFault(f);

    auto faulty = std::make_unique<BehavioralBackend>(8);
    faulty->setChipPrep([&inj](core::BehavioralChip &chip) {
        inj.attach(chip.engine(), fault::behavioralResolver(chip));
    });
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::move(faulty));
    ladder.push_back(std::make_unique<SoftwareBackend>());

    MatchService svc(smallConfig(), std::move(ladder));

    const MatchRequest req = seededRequest(6, 37, 2, 48, 4, 0.0);
    const MatchResponse resp = svc.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.toString();
    EXPECT_EQ(resp.result,
              core::ReferenceMatcher().match(req.text, req.pattern));
    EXPECT_GT(inj.injections(), 0u);
    // The fault either corrupts results (cross-check catches it) or
    // is masked by this workload; it must never corrupt silently.
    if (resp.crossCheckFailures > 0) {
        EXPECT_EQ(resp.backend, "software-baseline");
    }
}

TEST(Deadline, WholeRequestBudgetIsEnforced)
{
    MatchService svc(smallConfig(), behavioralLadder(8));
    MatchRequest req = seededRequest(8, 41, 2, 64, 4);
    req.deadlineBeats = 10; // far below one window's protocol cost
    const MatchResponse resp = svc.serve(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::DeadlineExceeded);
}

TEST(Checkpoint, ResumeIsBitIdenticalAtEveryKillOffset)
{
    // Metamorphic: kill the stream after 1, 2 and 4 committed chunks
    // and resume; every resumed run must be bit-identical to the
    // uninterrupted one.
    const MatchRequest req = seededRequest(77, 0xFEED, 2, 96, 5);
    ServiceConfig cfg = smallConfig();
    cfg.chunkChars = 16;

    MatchService uninterrupted(cfg, behavioralLadder(8));
    const MatchResponse golden = uninterrupted.serve(req);
    ASSERT_TRUE(golden.ok());
    EXPECT_EQ(golden.result,
              core::ReferenceMatcher().match(req.text, req.pattern));

    for (const std::size_t kill_after : {1u, 2u, 4u}) {
        MatchService svc(cfg, behavioralLadder(8));
        StreamSession session = svc.startSession(req);
        for (std::size_t i = 0; i < kill_after; ++i)
            ASSERT_TRUE(session.step());
        const Checkpoint cp = session.checkpoint();
        EXPECT_EQ(cp.offset, kill_after * cfg.chunkChars);
        session.cancel("killed by test");
        const MatchResponse killed = session.finish();
        EXPECT_EQ(killed.error.code, ErrorCode::Cancelled);

        // A fresh service (fresh chips, fresh journal) resumes from
        // the checkpoint alone.
        MatchService resumed_svc(cfg, behavioralLadder(8));
        const MatchResponse resumed = resumed_svc.resume(req, cp);
        ASSERT_TRUE(resumed.ok()) << resumed.error.toString();
        EXPECT_TRUE(resumed.resumed);
        EXPECT_EQ(resumed.result, golden.result)
            << "kill after " << kill_after << " chunks";
        // The resumed run must not have re-scanned the killed prefix.
        EXPECT_EQ(resumed.chunks,
                  golden.chunks - kill_after);
    }
}

TEST(Checkpoint, InconsistentResumeTokenIsRejected)
{
    const MatchRequest req = seededRequest(3, 0xABC, 2, 40, 4);
    MatchService svc(smallConfig(), behavioralLadder(8));
    Checkpoint bogus;
    bogus.offset = 17; // but no emitted bits / tail
    bogus.beats = 12345;
    const MatchResponse resp = svc.resume(req, bogus);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::InvalidCheckpoint);
    // A rejected token resumes nothing and carries none of its beats.
    EXPECT_FALSE(resp.resumed);
    EXPECT_EQ(resp.beats, 0u);
    EXPECT_EQ(svc.stats().counter("resumes").value(), 0u);
    EXPECT_EQ(svc.stats().counter("rejected").value(), 1u);
}

TEST(Checkpoint, DigestChangesWithContents)
{
    Checkpoint a;
    a.offset = 8;
    a.tail = {1, 2, 3};
    Checkpoint b = a;
    BitVec bits = BitVec::fromString("01001000");
    a.emit(bits, 0, bits.size());
    bits.set(3, true);
    b.emit(bits, 0, bits.size());
    EXPECT_NE(a.digest(), b.digest());
    b = a;
    EXPECT_EQ(a.digest(), b.digest());
    b.tail[0] = 2;
    EXPECT_NE(a.digest(), b.digest());
}

TEST(Checkpoint, ChunkedEmitDigestsLikeOneBitAtATimePacking)
{
    // The digest written out bit by bit: FNV-1a over the full words
    // (64 bits to a word, first bit on top), then offset, rung, beats
    // and tail, then a short last word marked by a 1 above its bits.
    auto repacked = [](const Checkpoint &cp, const BitVec &bits) {
        std::uint64_t h = 0xCBF29CE484222325ULL;
        auto mix = [&h](std::uint64_t v) {
            for (unsigned i = 0; i < 8; ++i) {
                h ^= (v >> (8 * i)) & 0xFF;
                h *= 0x100000001B3ULL;
            }
        };
        std::uint64_t word = 0;
        unsigned fill = 0;
        for (bool b : bits) {
            word = (word << 1) | (b ? 1 : 0);
            if (++fill == 64) {
                mix(word);
                word = 0;
                fill = 0;
            }
        }
        mix(cp.offset);
        mix(cp.rung);
        mix(cp.beats);
        for (Symbol s : cp.tail)
            mix(s);
        if (fill > 0)
            mix(word | (std::uint64_t(1) << fill));
        return h;
    };
    Rng rng(0xD16E57);
    for (std::size_t n : {0u, 1u, 63u, 64u, 65u, 127u, 128u, 200u, 513u}) {
        for (std::size_t chunk : {1u, 7u, 32u, 64u, 100u}) {
            BitVec bits(n);
            for (std::size_t i = 0; i < n; ++i)
                bits.set(i, (rng.next() & 1) != 0);
            Checkpoint cp;
            cp.offset = n;
            cp.rung = 2;
            cp.beats = 77;
            cp.tail = {3, 1};
            for (std::size_t at = 0; at < n; at += chunk) {
                // Emit from the middle of a window, as a commit does.
                BitVec window(3, true);
                const std::size_t end = std::min(n, at + chunk);
                window.append(bits.words(), at, end - at);
                cp.emit(window, 3, window.size());
            }
            ASSERT_EQ(cp.emitted().size(), n);
            EXPECT_EQ(cp.emitted(), bits) << n << " bits by " << chunk;
            EXPECT_EQ(cp.digest(), repacked(cp, bits))
                << n << " bits by " << chunk;
        }
    }
}

TEST(AdmissionQueue, RejectPolicyBouncesWithTypedError)
{
    AdmissionQueue q(2, BackpressurePolicy::Reject);
    MatchRequest r;
    r.pattern = {0};
    r.id = 1;
    EXPECT_TRUE(q.offer(r).admitted);
    r.id = 2;
    EXPECT_TRUE(q.offer(r).admitted);
    r.id = 3;
    const Admission adm = q.offer(r);
    EXPECT_FALSE(adm.admitted);
    EXPECT_EQ(adm.error.code, ErrorCode::QueueOverflow);
    ASSERT_TRUE(adm.bounced.has_value());
    EXPECT_EQ(adm.bounced->id, 3u);
    EXPECT_EQ(q.rejected(), 1u);
    EXPECT_EQ(q.size(), 2u);
}

TEST(AdmissionQueue, ShedOldestEvictsTheHead)
{
    AdmissionQueue q(2, BackpressurePolicy::ShedOldest);
    MatchRequest r;
    r.pattern = {0};
    for (std::uint64_t id = 1; id <= 3; ++id) {
        r.id = id;
        q.offer(r);
    }
    EXPECT_EQ(q.shedCount(), 1u);
    EXPECT_EQ(q.size(), 2u);
    // Head is now request 2; request 1 was shed.
    const auto head = q.pop();
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->id, 2u);
}

TEST(Service, ShedOldestSurfacesTypedShedResponse)
{
    ServiceConfig cfg = smallConfig();
    cfg.policy = BackpressurePolicy::ShedOldest;
    cfg.queueCapacity = 2;
    MatchService svc(cfg, behavioralLadder(8));

    for (std::uint64_t id = 1; id <= 2; ++id)
        EXPECT_TRUE(svc.submit(seededRequest(id, id, 2, 24, 3)).accepted);
    const auto third = svc.submit(seededRequest(3, 3, 2, 24, 3));
    EXPECT_TRUE(third.accepted);
    ASSERT_TRUE(third.shedResponse.has_value());
    EXPECT_EQ(third.shedResponse->id, 1u);
    EXPECT_EQ(third.shedResponse->error.code, ErrorCode::Shed);

    const auto responses = svc.drain();
    ASSERT_EQ(responses.size(), 2u);
    EXPECT_EQ(responses[0].id, 2u);
    EXPECT_EQ(responses[1].id, 3u);
    for (const auto &resp : responses)
        EXPECT_TRUE(resp.ok());
}

TEST(Service, BlockPolicyDrainsInline)
{
    ServiceConfig cfg = smallConfig();
    cfg.policy = BackpressurePolicy::Block;
    cfg.queueCapacity = 2;
    MatchService svc(cfg, behavioralLadder(8));

    for (std::uint64_t id = 1; id <= 2; ++id)
        EXPECT_TRUE(svc.submit(seededRequest(id, id, 2, 24, 3)).accepted);
    const auto third = svc.submit(seededRequest(3, 3, 2, 24, 3));
    EXPECT_TRUE(third.accepted);
    ASSERT_EQ(third.drained.size(), 1u); // producer waited for one drain
    EXPECT_EQ(third.drained[0].id, 1u);
    EXPECT_TRUE(third.drained[0].ok());
    EXPECT_EQ(svc.admission().blockedOffers(), 1u);

    const auto rest = svc.drain();
    EXPECT_EQ(rest.size(), 2u);
}

TEST(Service, JournalIsDeterministic)
{
    auto run = [] {
        ServiceConfig cfg = smallConfig();
        MatchService svc(cfg, behavioralLadder(8));
        svc.serve(seededRequest(1, 0x5EED, 2, 40, 4));
        svc.serve(seededRequest(2, 0x5EEE, 2, 32, 3));
        return svc.journal().dump();
    };
    const std::string a = run();
    const std::string b = run();
    EXPECT_FALSE(a.empty());
    EXPECT_EQ(a, b);
}

TEST(Service, StatsDumpCountsServing)
{
    MatchService svc(smallConfig(), behavioralLadder(8));
    svc.serve(seededRequest(1, 1, 2, 24, 3));
    const auto &s = svc.stats();
    EXPECT_EQ(s.counter("served").value(), 1u);
    EXPECT_EQ(s.counter("completed").value(), 1u);
    EXPECT_EQ(s.counter("failed").value(), 0u);
    EXPECT_GT(s.counter("checkpoints").value(), 0u);
    const std::string dump = svc.statsDump();
    EXPECT_NE(dump.find("service.completed = 1"), std::string::npos);
    EXPECT_NE(dump.find("hostbus.charsTransferred"), std::string::npos);
}

TEST(Service, FinishTwiceCountsTheRequestOnce)
{
    MatchService svc(smallConfig(), behavioralLadder(8));
    StreamSession session =
        svc.startSession(seededRequest(1, 1, 2, 24, 3));
    while (session.step()) {
    }
    const MatchResponse first = session.finish();
    const MatchResponse again = session.finish();
    ASSERT_TRUE(first.ok());
    EXPECT_EQ(again.result, first.result);
    const auto &s = svc.stats();
    EXPECT_EQ(s.counter("served").value(), 1u);
    EXPECT_EQ(s.counter("completed").value(), 1u);
    EXPECT_EQ(s.counter("failed").value(), 0u);

    // A cancelled session counts one failure, however often finished.
    StreamSession cut = svc.startSession(seededRequest(2, 2, 2, 24, 3));
    EXPECT_FALSE(cut.finish().ok());
    EXPECT_FALSE(cut.finish().ok());
    EXPECT_EQ(s.counter("served").value(), 2u);
    EXPECT_EQ(s.counter("failed").value(), 1u);
}

} // namespace
} // namespace spm::service
