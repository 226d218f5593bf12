/**
 * @file
 * Service-level telemetry tests: the registry-backed serving metrics,
 * the per-shard flight recorder, and the headline observability
 * property — a forced watchdog trip dumps the last chunks of history
 * with a replayable conformance case ID for the triggering chunk.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <memory>
#include <string>
#include <vector>

#include "conformance/case.hh"
#include "core/reference.hh"
#include "service/service.hh"
#include "telemetry/metrics.hh"
#include "util/rng.hh"

namespace spm::service
{
namespace
{

/** Eats the whole beat budget without producing a result. */
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

ServiceConfig
smallConfig()
{
    ServiceConfig cfg;
    cfg.cells = 8;
    cfg.alphabetBits = 2;
    cfg.chunkChars = 16;
    cfg.shardId = 3;
    return cfg;
}

MatchRequest
seededRequest(std::uint64_t id, std::uint64_t seed, std::size_t text_len,
              std::size_t pattern_len)
{
    WorkloadGen gen(seed, 2);
    MatchRequest req;
    req.id = id;
    req.pattern = gen.randomPattern(pattern_len, 0.25);
    req.text = gen.textWithPlants(text_len, req.pattern,
                                  pattern_len * 2 + 1);
    return req;
}

/** The "case=<id>" token of the dump's trigger line, "" if absent. */
std::string
extractCaseId(const std::string &dump)
{
    const std::size_t pos = dump.rfind("case=");
    if (pos == std::string::npos)
        return "";
    std::size_t end = pos + 5;
    while (end < dump.size() && !std::isspace(dump[end]))
        ++end;
    return dump.substr(pos + 5, end - (pos + 5));
}

TEST(ServiceTelemetry, WatchdogTripDumpsReplayableCaseId)
{
    // The acceptance criterion: wedge the only rung, force a watchdog
    // trip, and the flight dump must identify the triggering chunk by
    // a conformance case ID that decodeCase can replay.
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<WedgedBackend>());
    MatchService svc(smallConfig(), std::move(ladder));

    std::vector<std::string> dumps;
    svc.flightRecorder().setDumpSink(
        [&dumps](const std::string &d) { dumps.push_back(d); });

    const MatchRequest req = seededRequest(21, 11, 40, 4);
    const MatchResponse resp = svc.serve(req);
    EXPECT_FALSE(resp.ok());
    EXPECT_EQ(resp.error.code, ErrorCode::DeadlineExceeded);

    ASSERT_FALSE(dumps.empty());
    const std::string &dump = dumps.front();
    EXPECT_EQ(svc.flightRecorder().lastDump(), dumps.back());
    EXPECT_GE(svc.flightRecorder().tripCount(), 1u);

    // Structured fields: kind token, shard id from the config, the
    // error-taxonomy code, and a beat index on the trigger line.
    EXPECT_NE(dump.find("watchdog_trip"), std::string::npos);
    EXPECT_NE(dump.find("shard=3"), std::string::npos);
    EXPECT_NE(dump.find("code=deadline_exceeded"), std::string::npos);
    EXPECT_NE(dump.find("beat="), std::string::npos);
    EXPECT_NE(dump.find("<-- trigger"), std::string::npos);

    // The case ID replays: it decodes to the same alphabet and
    // pattern the wedged chunk was matching, with a non-empty window.
    const std::string case_id = extractCaseId(dump);
    ASSERT_NE(case_id, "");
    EXPECT_EQ(case_id.rfind("l1:", 0), 0u) << case_id;
    const std::optional<conformance::Case> c =
        conformance::decodeCase(case_id);
    ASSERT_TRUE(c.has_value()) << case_id;
    EXPECT_EQ(c->bits, smallConfig().alphabetBits);
    EXPECT_EQ(c->pattern, req.pattern);
    EXPECT_FALSE(c->text.empty());

    // The registry saw the same trip.
    EXPECT_GE(svc.stats().counter("watchdogTrips").value(), 1u);
}

TEST(ServiceTelemetry, WatchdogTripForceRetainsAnExemplar)
{
    // The reqobs acceptance criterion: a watchdog trip must survive in
    // the exemplar reservoir's forced ring no matter how much regular
    // traffic follows, carrying the full-request replay case ID.
    telem::setSamplingEnabled(true);
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<WedgedBackend>());
    MatchService svc(smallConfig(), std::move(ladder));
    svc.flightRecorder().setDumpSink([](const std::string &) {});

    const MatchRequest req = seededRequest(31, 17, 40, 4);
    const MatchResponse resp = svc.serve(req);
    EXPECT_FALSE(resp.ok());

    const std::vector<telem::Exemplar> forced = svc.exemplars().forced();
    ASSERT_FALSE(forced.empty());
    const telem::Exemplar &e = forced.front();
    EXPECT_TRUE(e.forced);
    EXPECT_STREQ(e.reason, "watchdog trip");
    EXPECT_EQ(e.event.requestId, 31u);
    EXPECT_STREQ(e.service, "stream");

    // The exemplar's case ID replays the whole request, not just the
    // wedged chunk: pattern and text round-trip exactly.
    const std::string id = e.event.caseRef.render();
    const std::optional<conformance::Case> c = conformance::decodeCase(id);
    ASSERT_TRUE(c.has_value()) << id;
    EXPECT_EQ(c->bits, smallConfig().alphabetBits);
    EXPECT_EQ(c->pattern, req.pattern);
    EXPECT_EQ(c->text, req.text);

    // The rendered reservoir names the retention reason.
    EXPECT_NE(svc.exemplars().renderText().find("forced(watchdog trip)"),
              std::string::npos);
}

TEST(ServiceTelemetry, LongRequestsRenderFixedSizeCaseRefs)
{
    // Past caseLiteralCap symbols the exemplar and the flight events
    // carry a "ref:" (lengths, offset, digest), not the text.
    telem::setSamplingEnabled(true);
    std::vector<std::size_t> sizes;
    for (const std::size_t n : {std::size_t{8192}, std::size_t{65536}}) {
        std::vector<std::unique_ptr<ServiceBackend>> ladder;
        ladder.push_back(std::make_unique<WedgedBackend>());
        ladder.push_back(std::make_unique<SoftwareBackend>());
        ServiceConfig cfg = smallConfig();
        cfg.chunkChars = 2048;
        MatchService svc(cfg, std::move(ladder));
        svc.flightRecorder().setDumpSink([](const std::string &) {});
        ASSERT_TRUE(svc.serve(seededRequest(40, 41, n, 4)).ok());

        const std::vector<telem::Exemplar> forced = svc.exemplars().forced();
        ASSERT_EQ(forced.size(), 1u);
        const std::string ref = forced.front().event.caseRef.render();
        EXPECT_EQ(ref.rfind("ref:40:2:4:" + std::to_string(n) + ":0:", 0),
                  0u)
            << ref;
        sizes.push_back(ref.size());
        std::size_t trips = 0;
        for (const telem::EventRecord &ev : svc.flightRecorder().events()) {
            if (!ev.caseRef)
                continue;
            ++trips;
            EXPECT_EQ(ev.caseRef.render().rfind("ref:40:2:4:2048:0:", 0),
                      0u);
        }
        EXPECT_EQ(trips, 2u); // the watchdog trip and the ladder fall
    }
    telem::setSamplingEnabled(false);
    // 8 K and 64 K: one more digit of length, nothing else.
    EXPECT_EQ(sizes[1], sizes[0] + 1);
    EXPECT_LT(sizes[1], 64u);
}

TEST(ServiceTelemetry, LadderFallRecordsTransitionEvent)
{
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<WedgedBackend>());
    ladder.push_back(std::make_unique<SoftwareBackend>());
    MatchService svc(smallConfig(), std::move(ladder));
    svc.flightRecorder().setDumpSink([](const std::string &) {});

    const MatchRequest req = seededRequest(22, 23, 40, 4);
    const MatchResponse resp = svc.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.toString();
    EXPECT_EQ(resp.backend, "software-baseline");

    bool saw_transition = false;
    for (const telem::EventRecord &ev : svc.flightRecorder().events()) {
        if (ev.kind != telem::EventKind::LadderTransition)
            continue;
        saw_transition = true;
        EXPECT_EQ(ev.shard, 3u);
        EXPECT_EQ(ev.requestId, 22u);
        EXPECT_NE(ev.code, nullptr);
        EXPECT_NE(svc.flightRecorder().render(ev).find("note=fall"),
                  std::string::npos);
    }
    EXPECT_TRUE(saw_transition);
    EXPECT_GE(svc.stats().counter("degradations").value(), 1u);
    EXPECT_GE(svc.flightRecorder().tripCount(), 1u);
    EXPECT_NE(svc.flightRecorder().lastDump().find("ladder transition"),
              std::string::npos);
}

TEST(ServiceTelemetry, ChunkCommitsLandInRecorderAndHistogram)
{
    MatchService svc(smallConfig());
    telem::setSamplingEnabled(true);
    const MatchRequest req = seededRequest(31, 41, 64, 3);
    const MatchResponse resp = svc.serve(req);
    telem::setSamplingEnabled(false);
    ASSERT_TRUE(resp.ok());
    ASSERT_GE(resp.chunks, 4u);

    // Every committed chunk leaves a ChunkCommit breadcrumb with
    // monotonically increasing stream offsets.
    std::uint64_t commits = 0;
    std::uint64_t last_offset = 0;
    for (const telem::EventRecord &ev : svc.flightRecorder().events()) {
        if (ev.kind != telem::EventKind::ChunkCommit)
            continue;
        ++commits;
        EXPECT_EQ(ev.requestId, 31u);
        EXPECT_GE(ev.offset, last_offset);
        last_offset = ev.offset;
    }
    EXPECT_EQ(commits, resp.chunks);

    // And one latency sample per chunk in the registry histogram.
    const telem::Snapshot snap = svc.metricsSnapshot();
    const telem::Snapshot::LogHistogramData *h =
        snap.logHistogram("chunk_beats");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->samples(), resp.chunks);
    EXPECT_GT(h->mean(), 0.0);

    // A gate-ladder request whose 512-char chunks each cost at least
    // 1024 beats: the histogram has no upper edge to clip them at, and
    // its p99 lands within the 12.5% bucket bound of the beats charged.
    ServiceConfig wide = smallConfig();
    wide.chunkChars = 512;
    MatchService gate(wide);
    telem::setSamplingEnabled(true);
    const MatchResponse big = gate.serve(seededRequest(32, 43, 4 * 512, 3));
    telem::setSamplingEnabled(false);
    ASSERT_TRUE(big.ok());
    ASSERT_EQ(big.degradations, 0u);
    ASSERT_EQ(big.backend, gate.ladderNames().front());
    ASSERT_EQ(big.chunks, 4u);
    Beat charged = 0;
    Beat most = 0;
    for (const telem::EventRecord &ev : gate.flightRecorder().events()) {
        if (ev.kind != telem::EventKind::ChunkCommit)
            continue;
        EXPECT_GE(ev.beats - charged, 1024u);
        most = std::max(most, ev.beats - charged);
        charged = ev.beats;
    }
    EXPECT_EQ(charged, big.beats);
    const telem::Snapshot wideSnap = gate.metricsSnapshot();
    const telem::Snapshot::LogHistogramData *wh =
        wideSnap.logHistogram("chunk_beats");
    ASSERT_NE(wh, nullptr);
    EXPECT_EQ(wh->samples(), big.chunks);
    EXPECT_NEAR(wh->quantile(0.99), static_cast<double>(most),
                static_cast<double>(most) / 8.0);
}

TEST(ServiceTelemetry, RegistryBacksTheLegacyDumpFormat)
{
    MatchService svc(smallConfig());
    const MatchRequest req = seededRequest(5, 7, 32, 3);
    ASSERT_TRUE(svc.serve(req).ok());

    EXPECT_EQ(svc.stats().counter("served").value(), 1u);
    EXPECT_EQ(svc.stats().counter("completed").value(), 1u);

    const std::string dump = svc.statsDump();
    EXPECT_NE(dump.find("service.served = 1"), std::string::npos);
    EXPECT_NE(dump.find("service.completed = 1"), std::string::npos);
    EXPECT_NE(dump.find("service.checkpoints = "), std::string::npos);
    EXPECT_NE(dump.find("service.queue.offered = "), std::string::npos);
    EXPECT_NE(dump.find("hostbus."), std::string::npos);

    const telem::Snapshot snap = svc.metricsSnapshot();
    EXPECT_EQ(snap.counterValue("served"), 1u);
    EXPECT_EQ(snap.gaugeValue("queue_depth"), 0.0);
}

TEST(ServiceTelemetry, CrossCheckMismatchLeavesBreadcrumb)
{
    /** Answers instantly but always wrongly. */
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

    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<LyingBackend>());
    ladder.push_back(std::make_unique<SoftwareBackend>());
    MatchService svc(smallConfig(), std::move(ladder));
    svc.flightRecorder().setDumpSink([](const std::string &) {});

    const MatchRequest req = seededRequest(7, 31, 48, 4);
    const MatchResponse resp = svc.serve(req);
    ASSERT_TRUE(resp.ok()) << resp.error.toString();
    EXPECT_EQ(resp.result,
              core::ReferenceMatcher().match(req.text, req.pattern));

    bool saw_mismatch = false;
    for (const telem::EventRecord &ev : svc.flightRecorder().events()) {
        if (ev.kind != telem::EventKind::CrossCheckMismatch)
            continue;
        saw_mismatch = true;
        EXPECT_EQ(ev.caseRef.render().rfind("l1:", 0), 0u);
    }
    EXPECT_TRUE(saw_mismatch);
    EXPECT_GE(svc.stats().counter("crossCheckFailures").value(), 2u);
}

} // namespace
} // namespace spm::service
