/**
 * @file
 * Flight recorder tests: the bounded event ring, trip dumps and their
 * sinks, and the frozen case-ID format — every telem::literalCaseId
 * must decode through conformance::decodeCase so every dump line
 * replays with `conformance_fuzz --replay`.
 */

#include <gtest/gtest.h>

#include <vector>

#include "conformance/case.hh"
#include "telemetry/flightrec.hh"

namespace spm::telem
{
namespace
{

FlightEvent
chunkEvent(std::uint64_t req, std::uint64_t offset)
{
    FlightEvent ev;
    ev.kind = FlightKind::ChunkCommit;
    ev.beat = offset * 3;
    ev.shard = 2;
    ev.requestId = req;
    ev.offset = offset;
    return ev;
}

TEST(FlightRecorder, RingIsBoundedOldestFirst)
{
    FlightRecorder rec(4);
    for (std::uint64_t i = 0; i < 10; ++i)
        rec.record(chunkEvent(1, i));
    const std::vector<FlightEvent> events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(rec.recordedTotal(), 10u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].offset, 6 + i);
        EXPECT_EQ(events[i].seq, 6 + i); // sequence numbers persist
    }
}

TEST(FlightRecorder, RingWraparoundIsExactAtBoundaries)
{
    FlightRecorder rec(4);
    // Exactly full: nothing evicted yet.
    for (std::uint64_t i = 0; i < 4; ++i)
        rec.record(chunkEvent(1, i));
    ASSERT_EQ(rec.events().size(), 4u);
    EXPECT_EQ(rec.events().front().offset, 0u);

    // One past capacity: exactly the oldest event falls out.
    rec.record(chunkEvent(1, 4));
    std::vector<FlightEvent> events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(events.front().offset, 1u);
    EXPECT_EQ(events.back().offset, 4u);

    // Several complete wraps: order and sequence numbers stay exact.
    for (std::uint64_t i = 5; i < 21; ++i)
        rec.record(chunkEvent(1, i));
    events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(rec.recordedTotal(), 21u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].offset, 17 + i);
        EXPECT_EQ(events[i].seq, 17 + i);
    }

    // A trip after wrapping reports only the retained history.
    rec.setDumpSink([](const std::string &) {});
    const std::string dump = rec.trip("wrap check", chunkEvent(1, 21));
    EXPECT_NE(dump.find("(4 prior"), std::string::npos);
}

TEST(FlightRecorder, TripDumpCarriesHistoryAndTrigger)
{
    FlightRecorder rec(8);
    std::vector<std::string> sunk;
    rec.setDumpSink([&sunk](const std::string &d) { sunk.push_back(d); });

    rec.record(chunkEvent(7, 0));
    rec.record(chunkEvent(7, 16));

    FlightEvent trip;
    trip.kind = FlightKind::WatchdogTrip;
    trip.beat = 99;
    trip.shard = 2;
    trip.requestId = 7;
    trip.code = "deadline_exceeded";
    trip.caseId = "l1:2:1.2:0.1.2.3";
    const std::string dump = rec.trip("watchdog trip", trip);

    EXPECT_EQ(rec.tripCount(), 1u);
    EXPECT_EQ(rec.lastDump(), dump);
    ASSERT_EQ(sunk.size(), 1u);
    EXPECT_EQ(sunk[0], dump);

    // Header names the reason and counts the prior events.
    EXPECT_NE(dump.find("=== flight dump: watchdog trip (2 prior"),
              std::string::npos);
    // History renders oldest first, then the trigger, marked.
    EXPECT_NE(dump.find("chunk_commit"), std::string::npos);
    EXPECT_NE(dump.find("watchdog_trip"), std::string::npos);
    EXPECT_NE(dump.find("<-- trigger"), std::string::npos);
    // Structured fields all present: beat, shard, taxonomy code, and
    // the replayable case ID.
    EXPECT_NE(dump.find("beat=99"), std::string::npos);
    EXPECT_NE(dump.find("shard=2"), std::string::npos);
    EXPECT_NE(dump.find("code=deadline_exceeded"), std::string::npos);
    EXPECT_NE(dump.find("case=l1:2:1.2:0.1.2.3"), std::string::npos);
}

TEST(FlightRecorder, ClearForgetsHistoryKeepsTotals)
{
    FlightRecorder rec(8);
    rec.setDumpSink([](const std::string &) {});
    rec.record(chunkEvent(1, 0));
    rec.trip("test", chunkEvent(1, 1));
    rec.clear();
    EXPECT_TRUE(rec.events().empty());
    EXPECT_TRUE(rec.lastDump().empty());
    EXPECT_EQ(rec.tripCount(), 1u);
    EXPECT_EQ(rec.recordedTotal(), 2u);
}

TEST(FlightRecorder, KindNamesAreStableTokens)
{
    EXPECT_STREQ(flightKindName(FlightKind::ChunkCommit), "chunk_commit");
    EXPECT_STREQ(flightKindName(FlightKind::WatchdogTrip),
                 "watchdog_trip");
    EXPECT_STREQ(flightKindName(FlightKind::CrossCheckMismatch),
                 "crosscheck_mismatch");
    EXPECT_STREQ(flightKindName(FlightKind::LadderTransition),
                 "ladder_transition");
    EXPECT_STREQ(flightKindName(FlightKind::ConformanceFailure),
                 "conformance_failure");
    EXPECT_STREQ(flightKindName(FlightKind::Note), "note");
}

TEST(LiteralCaseId, RoundTripsThroughDecodeCase)
{
    const std::vector<Symbol> pattern = {1, wildcardSymbol, 3};
    const std::vector<Symbol> text = {0, 1, 2, 3, 1, 0, 3};
    const std::string id = literalCaseId(2, pattern, text);
    const std::optional<conformance::Case> c =
        conformance::decodeCase(id);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->bits, 2);
    EXPECT_EQ(c->pattern, pattern);
    EXPECT_EQ(c->text, text);
}

TEST(FlightRecorder, GlobalIsUsable)
{
    const std::uint64_t before = FlightRecorder::global().recordedTotal();
    FlightEvent ev;
    ev.kind = FlightKind::Note;
    ev.note = "flightrec test marker";
    FlightRecorder::global().record(ev);
    EXPECT_EQ(FlightRecorder::global().recordedTotal(), before + 1);
}

} // namespace
} // namespace spm::telem
