/**
 * @file
 * Span tracing tests: RAII recording, category filtering, per-thread
 * ring wraparound, multi-thread interleave under the collect-at-
 * quiescence contract, and the Chrome trace-event JSON export checked
 * against the schema validator trace_view --check uses.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/jsonlite.hh"
#include "telemetry/span.hh"

namespace spm::telem
{
namespace
{

TEST(ScopedSpan, RecordsCompleteEventWithBeatAndArg)
{
    TraceBuffer buf(64);
    buf.setEnabled(true);
    {
        ScopedSpan span(buf, "test.work", cat::service, 7, 99);
        span.setBeat(123);
    }
    const std::vector<SpanEvent> events = buf.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "test.work");
    EXPECT_EQ(events[0].phase, SpanEvent::Phase::Complete);
    EXPECT_EQ(events[0].beat, 123u);
    EXPECT_EQ(events[0].arg, 99u);
    EXPECT_EQ(events[0].category, cat::service);
}

TEST(ScopedSpan, DisabledBufferRecordsNothing)
{
    TraceBuffer buf(64);
    ASSERT_FALSE(buf.enabled());
    {
        ScopedSpan span(buf, "test.work", cat::service);
    }
    instant(buf, "test.instant", cat::service);
    EXPECT_TRUE(buf.collect().empty());
    EXPECT_EQ(buf.recordedTotal(), 0u);
}

TEST(Instant, RecordsInstantPhase)
{
    TraceBuffer buf(64);
    buf.setEnabled(true);
    instant(buf, "trip", cat::service, 42, 3);
    const auto events = buf.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].phase, SpanEvent::Phase::Instant);
    EXPECT_EQ(events[0].beat, 42u);
}

TEST(TraceBuffer, RingWrapsKeepingMostRecent)
{
    TraceBuffer buf(8);
    buf.setEnabled(true);
    for (std::uint64_t i = 0; i < 20; ++i)
        instant(buf, "tick", cat::engine, i, i);
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
    buf.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kEach = 100;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&buf] {
            for (int i = 0; i < kEach; ++i) {
                ScopedSpan span(buf, "worker", cat::sharded, 0,
                                static_cast<std::uint64_t>(i));
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
    buf.setEnabled(true);
    {
        ScopedSpan span(buf, "serve", cat::service, 10, 1);
    }
    instant(buf, "trip", cat::service, 11, 2);
    const std::string json = buf.exportChromeJson("unit test");
    EXPECT_EQ(validateChromeTrace(json), "");

    // Spot-check the fields Perfetto needs.
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
            ASSERT_NE(ev.member("args"), nullptr);
            EXPECT_NE(ev.member("args")->member("beat"), nullptr);
        }
        if (ph->asString() == "I")
            saw_instant = true;
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
    buf.setEnabled(true);
    instant(buf, "a", cat::engine);
    buf.clear();
    EXPECT_TRUE(buf.collect().empty());
    EXPECT_EQ(buf.recordedTotal(), 0u);
    instant(buf, "b", cat::engine);
    const auto events = buf.collect();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "b");
}

TEST(Categories, NamesRenderTheBitsSet)
{
    EXPECT_EQ(cat::names(cat::service | cat::sharded),
              "service,sharded");
}

} // namespace
} // namespace spm::telem
