/**
 * @file
 * Trace tests: the two sources of trace events (a traced StageClock's
 * marks are stage spans, a FlightRecorder trip is an instant), the
 * per-thread ring wraparound, multi-thread interleave under the
 * collect-at-quiescence contract, and the Chrome trace-event JSON
 * export checked against the schema validator trace_view --check uses.
 */

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "telemetry/event.hh"
#include "telemetry/jsonlite.hh"
#include "telemetry/span.hh"
#include "tests/helpers.hh"

namespace spm::telem
{
namespace
{

using test::ScopedTrace;

SpanEvent
event(const char *name, std::uint64_t arg,
      SpanEvent::Phase phase = SpanEvent::Phase::Instant)
{
    return {.name = name, .arg = arg, .phase = phase};
}

TEST(StageClockTrace, MarksRecordBackToBackStageSpans)
{
    ScopedTrace trace;
    StageClock clock;
    clock.start(99);
    clock.addBeats(7);
    clock.mark(Stage::Kernel);
    clock.addBeats(3);
    clock.mark(Stage::Commit);

    const std::vector<SpanEvent> events = trace.events();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "kernel");
    EXPECT_STREQ(events[1].name, "commit");
    for (const SpanEvent &ev : events) {
        EXPECT_EQ(ev.phase, SpanEvent::Phase::Complete);
        EXPECT_EQ(ev.arg, 99u);
    }
    EXPECT_EQ(events[0].beat, 7u);
    EXPECT_EQ(events[1].beat, 10u);
    // Each span runs from the previous mark to its own.
    EXPECT_EQ(events[1].startUs, events[0].startUs + events[0].durUs);
}

TEST(StageClockTrace, TracingNeedsBothSwitchesAtStart)
{
    for (const auto &[tracing, sampling] :
         {std::pair{false, true}, std::pair{true, false}}) {
        ScopedTrace trace(tracing, sampling);
        StageClock clock;
        clock.start(1);
        clock.mark(Stage::Admit);
        EXPECT_TRUE(trace.events().empty());
    }
    // A clock started untraced stays untraced.
    ScopedTrace trace(false);
    StageClock clock;
    clock.start(1);
    TraceBuffer::global().setEnabled(true);
    clock.mark(Stage::Admit);
    EXPECT_TRUE(trace.events().empty());
}

TEST(FlightRecorderTrace, TripRecordsOneInstantNamedForItsKind)
{
    ScopedTrace trace;
    FlightRecorder rec(8);
    rec.setDumpSink([](const std::string &) {});
    rec.record({.kind = EventKind::ChunkCommit, .requestId = 5});
    rec.trip("test", {.kind = EventKind::WatchdogTrip,
                      .requestId = 5,
                      .beats = 42});

    const std::vector<SpanEvent> events = trace.events();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "watchdog_trip");
    EXPECT_EQ(events[0].phase, SpanEvent::Phase::Instant);
    EXPECT_EQ(events[0].beat, 42u);
    EXPECT_EQ(events[0].arg, 5u);
}

TEST(FlightRecorderTrace, UntracedTripRecordsNothing)
{
    ScopedTrace trace(false);
    FlightRecorder rec(8);
    rec.setDumpSink([](const std::string &) {});
    rec.trip("test", {.kind = EventKind::OverlapMismatch});
    EXPECT_EQ(rec.tripCount(), 1u);
    EXPECT_TRUE(trace.events().empty());
    EXPECT_EQ(TraceBuffer::global().recordedTotal(), 0u);
}

TEST(TraceBuffer, RingWrapsKeepingMostRecent)
{
    TraceBuffer buf(8);
    for (std::uint64_t i = 0; i < 20; ++i)
        buf.record(event("tick", i));
    const auto events = buf.collect();
    ASSERT_EQ(events.size(), buf.ringCapacity());
    EXPECT_EQ(buf.recordedTotal(), 20u);
    EXPECT_EQ(buf.droppedTotal(), 20u - buf.ringCapacity());
    // The survivors are the newest events, in order.
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].arg, 20 - buf.ringCapacity() + i);
}

TEST(TraceBuffer, MultiThreadInterleaveCollectsAll)
{
    TraceBuffer buf(1024);
    constexpr int kThreads = 4;
    constexpr int kEach = 100;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&buf] {
            for (int i = 0; i < kEach; ++i) {
                SpanEvent ev = event("worker", static_cast<std::uint64_t>(i),
                                     SpanEvent::Phase::Complete);
                ev.startUs = buf.nowUs();
                buf.record(ev);
            }
        });
    for (auto &t : ts)
        t.join(); // the happens-before edge collect() requires

    const auto events = buf.collect();
    EXPECT_EQ(events.size(),
              static_cast<std::size_t>(kThreads) * kEach);
    // Dense per-thread tids, all within range.
    for (const SpanEvent &e : events)
        EXPECT_LT(e.tid, static_cast<std::uint32_t>(kThreads) + 1);
    // Sorted by start time.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LE(events[i - 1].startUs, events[i].startUs);
}

TEST(TraceBuffer, ChromeExportPassesSchemaCheck)
{
    TraceBuffer buf(64);
    buf.record(event("kernel", 1, SpanEvent::Phase::Complete));
    buf.record(event("watchdog_trip", 2));
    const std::string json = buf.exportChromeJson("unit test");
    EXPECT_EQ(validateChromeTrace(json), "");

    // Spot-check the fields Perfetto needs, and the fixed categories.
    const std::optional<JsonValue> doc = jsonParse(json);
    ASSERT_TRUE(doc.has_value());
    ASSERT_TRUE(doc->isArray());
    ASSERT_GE(doc->arrayItems().size(), 3u); // metadata + X + I
    bool saw_complete = false;
    bool saw_instant = false;
    for (const JsonValue &ev : doc->arrayItems()) {
        const JsonValue *ph = ev.member("ph");
        ASSERT_NE(ph, nullptr);
        EXPECT_NE(ev.member("ts"), nullptr);
        EXPECT_NE(ev.member("pid"), nullptr);
        EXPECT_NE(ev.member("tid"), nullptr);
        EXPECT_NE(ev.member("name"), nullptr);
        if (ph->asString() == "X") {
            saw_complete = true;
            EXPECT_NE(ev.member("dur"), nullptr);
            EXPECT_EQ(ev.member("cat")->asString(), "stage");
            ASSERT_NE(ev.member("args"), nullptr);
            EXPECT_NE(ev.member("args")->member("beat"), nullptr);
        }
        if (ph->asString() == "I") {
            saw_instant = true;
            EXPECT_EQ(ev.member("cat")->asString(), "trip");
        }
    }
    EXPECT_TRUE(saw_complete);
    EXPECT_TRUE(saw_instant);
}

TEST(TraceBuffer, ValidatorRejectsBrokenTraces)
{
    EXPECT_NE(validateChromeTrace(""), "");
    EXPECT_NE(validateChromeTrace("{}"), "");
    EXPECT_NE(validateChromeTrace("[]"), "");
    EXPECT_NE(validateChromeTrace("[{\"ph\":\"X\"}]"), "");
    // An 'X' event without dur is malformed.
    EXPECT_NE(validateChromeTrace(
                  "[{\"ph\":\"X\",\"ts\":0,\"pid\":1,\"tid\":0,"
                  "\"name\":\"x\"}]"),
              "");
    EXPECT_EQ(validateChromeTrace(
                  "[{\"ph\":\"X\",\"ts\":0,\"dur\":1,\"pid\":1,"
                  "\"tid\":0,\"name\":\"x\"}]"),
              "");
}

TEST(TraceBuffer, ClearDropsEventsAndTotals)
{
    TraceBuffer buf(64);
    buf.record(event("a", 0));
    buf.clear();
    EXPECT_TRUE(buf.collect().empty());
    EXPECT_EQ(buf.recordedTotal(), 0u);
    buf.record(event("b", 0));
    const auto events = buf.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "b");
}

} // namespace
} // namespace spm::telem
