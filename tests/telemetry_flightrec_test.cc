/**
 * @file
 * Event-record tests: the bounded flight ring (also under concurrent
 * recorders), trip dumps and their sinks, the journal's wrap and
 * dropped count, the journal and flight line renders, and the case
 * references -- a case within caseLiteralCap
 * renders the frozen "l1:" format that conformance::decodeCase reads
 * back, so every such dump line replays with `conformance_fuzz
 * --replay`; a larger one renders a fixed-size "ref:".
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "conformance/case.hh"
#include "util/rng.hh"
#include "telemetry/event.hh"

namespace spm::telem
{
namespace
{

EventRecord
chunkEvent(std::uint64_t req, std::uint64_t offset)
{
    EventRecord ev;
    ev.kind = EventKind::ChunkCommit;
    ev.beats = offset * 3;
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
    const std::vector<EventRecord> events = rec.events();
    ASSERT_EQ(events.size(), 4u);
    EXPECT_EQ(rec.recordedTotal(), 10u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].offset, 6 + i);
        EXPECT_EQ(events[i].seq, 6 + i); // sequence numbers persist
    }
}

TEST(FlightRecorder, ZeroCapacityKeepsOneEvent)
{
    // A zero capacity reads as a one-event ring; it never grows.
    FlightRecorder rec(0);
    for (std::uint64_t i = 0; i < 12; ++i)
        rec.record(chunkEvent(1, i));
    const std::vector<EventRecord> events = rec.events();
    ASSERT_EQ(rec.size(), 1u);
    EXPECT_EQ(events.back().offset, 11u);
    EXPECT_EQ(rec.recordedTotal(), 12u);
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
    std::vector<EventRecord> events = rec.events();
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

    EventRecord trip;
    trip.kind = EventKind::WatchdogTrip;
    trip.beats = 99;
    trip.shard = 2;
    trip.requestId = 7;
    trip.code = "deadline_exceeded";
    trip.caseRef = CaseRef(7, 2, std::vector<Symbol>{1, 2},
                           std::vector<Symbol>{0, 1, 2, 3});
    trip.limit = 69;
    rec.setRungNames({"gate"});
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
    // The note is rendered from the rung index and the budget.
    EXPECT_NE(dump.find("note=rung=gate budget=69  <-- trigger"),
              std::string::npos);
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
    EXPECT_STREQ(eventKindName(EventKind::ChunkCommit), "chunk_commit");
    EXPECT_STREQ(eventKindName(EventKind::WatchdogTrip), "watchdog_trip");
    EXPECT_STREQ(eventKindName(EventKind::CrossCheckMismatch),
                 "crosscheck_mismatch");
    EXPECT_STREQ(eventKindName(EventKind::LadderTransition),
                 "ladder_transition");
    EXPECT_STREQ(eventKindName(EventKind::ConformanceFailure),
                 "conformance_failure");
    EXPECT_STREQ(eventKindName(EventKind::Note), "note");
    EXPECT_STREQ(eventKindName(EventKind::Reject), "rejected");
}

TEST(FlightRecorder, ConcurrentRecordersKeepEveryEventOnce)
{
    // Sharded workers record into the recorders concurrently.
    FlightRecorder rec(16);
    std::vector<std::thread> threads;
    for (std::uint32_t t = 0; t < 4; ++t)
        threads.emplace_back([&rec, t] {
            for (std::uint64_t i = 0; i < 500; ++i) {
                EventRecord ev = chunkEvent(t, i);
                if (i % 50 == 0)
                    ev.setDetail("worker " + std::to_string(t));
                rec.record(std::move(ev));
            }
        });
    for (std::thread &th : threads)
        th.join();
    EXPECT_EQ(rec.recordedTotal(), 2000u);
    const std::vector<EventRecord> events = rec.events();
    ASSERT_EQ(events.size(), 16u);
    for (std::size_t i = 0; i < events.size(); ++i)
        EXPECT_EQ(events[i].seq, 1984 + i);
}

TEST(EventJournal, RendersJournalLinesFromFields)
{
    FlightRecorder journal{JournalTag{}};
    journal.setRungNames({"gate", "soft"});
    const EventRecord chunk{.kind = EventKind::ChunkCommit,
                            .rung = 1,
                            .seq = 4,
                            .requestId = 9,
                            .offset = 64,
                            .length = 512,
                            .beats = 119,
                            .digest = 77};
    EXPECT_EQ(journal.render(chunk),
              "seq=4 req=9 chunk offset=64/512 rung=soft beats=119 ckpt=77");
    const EventRecord start{.kind = EventKind::Start,
                            .length = 40,
                            .count = 4};
    EXPECT_EQ(journal.render(start),
              "seq=0 req=0 start n=40 k=4 ladder=gate,soft");
    EventRecord cancel{.kind = EventKind::Cancel, .offset = 16};
    EXPECT_EQ(journal.render(cancel),
              "seq=0 req=0 cancel rung=gate offset=16 failed");
    cancel.setDetail("wedged");
    EXPECT_EQ(journal.render(cancel),
              "seq=0 req=0 cancel rung=gate offset=16 wedged");
    EventRecord fail{.kind = EventKind::Fail, .code = "cancelled"};
    fail.setDetail("killed");
    EXPECT_EQ(journal.render(fail), "seq=0 req=0 fail code=cancelled killed");
    const EventRecord mismatch{.kind = EventKind::CrossCheckMismatch,
                               .offset = 32,
                               .count = 2,
                               .limit = 1};
    EXPECT_EQ(journal.render(mismatch),
              "seq=0 req=0 crosscheck-mismatch rung=gate offset=32 "
              "faults=2/1");
    const EventRecord shed{.kind = EventKind::Shed, .requestId = 3};
    EXPECT_EQ(journal.render(shed), "seq=0 req=3 shed");
}

TEST(EventJournal, HoldsItsLastRecordsAndRestartsNumberingOnClear)
{
    FlightRecorder journal{JournalTag{}};
    for (std::uint64_t i = 0; i < 300; ++i)
        journal.record({.kind = EventKind::Shed, .requestId = i});
    EXPECT_EQ(journal.size(), 300u);
    EXPECT_EQ(journal.dropped(), 0u);
    for (std::uint64_t i = 300; i < journalCapacity + 10; ++i)
        journal.record({.kind = EventKind::Shed, .requestId = i});
    EXPECT_EQ(journal.size(), journalCapacity);
    const std::vector<EventRecord> held = journal.events();
    EXPECT_EQ(held.front().seq, 10u);
    EXPECT_EQ(held.back().seq, journalCapacity + 9);
    EXPECT_EQ(journal.recordedTotal(), journalCapacity + 10);
    EXPECT_EQ(journal.dropped(), 10u);
    EXPECT_EQ(journal.dump().rfind("seq=10 req=10 shed\n", 0), 0u);

    journal.clear();
    EXPECT_EQ(journal.size(), 0u);
    EXPECT_EQ(journal.dropped(), 0u);
    journal.record({.kind = EventKind::Shed, .requestId = 7});
    EXPECT_EQ(journal.dump(), "seq=0 req=7 shed\n");
    EXPECT_EQ(journal.dropped(), 0u);
}

TEST(FlightRecorder, LadderFallNoteNamesWhyItFell)
{
    FlightRecorder rec(4);
    rec.setRungNames({"gate", "soft"});
    EventRecord fall{.kind = EventKind::LadderTransition};
    EXPECT_NE(rec.render(fall).find("note=fall from=gate to_rung=1"),
              std::string::npos);
    fall.count = 2;
    fall.limit = 1;
    EXPECT_NE(rec.render(fall).find(
                  "note=fault budget burned from=gate to_rung=1"),
              std::string::npos);
}

TEST(CaseRef, WithinTheCapRoundTripsThroughDecodeCase)
{
    Rng rng(0xCA5E);
    for (const std::size_t n : {std::size_t{0}, std::size_t{17},
                                caseLiteralCap - 8}) {
        std::vector<Symbol> pattern(8), text(n);
        for (Symbol &p : pattern)
            p = rng.nextBelow(4) == 0 ? wildcardSymbol
                                      : static_cast<Symbol>(rng.nextBelow(16));
        for (Symbol &c : text)
            c = static_cast<Symbol>(rng.nextBelow(16));
        const CaseRef ref(5, 4, pattern, text, 32);
        EXPECT_EQ(ref.render(), literalCaseId(4, pattern, text));
        const std::optional<conformance::Case> c =
            conformance::decodeCase(ref.render());
        ASSERT_TRUE(c.has_value()) << "n=" << n;
        EXPECT_EQ(c->bits, 4u);
        EXPECT_EQ(c->pattern, pattern);
        EXPECT_EQ(c->text, text);
    }
}

TEST(CaseRef, AboveTheCapRendersAFixedSizeReference)
{
    const std::vector<Symbol> pattern = {1, 2, 3};
    std::vector<Symbol> text(caseLiteralCap - 2, 1);
    const CaseRef over(7, 2, pattern, text, 4096);
    const std::string ref = over.render();
    EXPECT_EQ(ref, "ref:7:2:3:1022:4096");
    EXPECT_FALSE(conformance::decodeCase(ref).has_value());

    // The ref reads no symbol: texts of one shape share it, and its
    // size does not grow with them.
    text.back() = 2;
    EXPECT_EQ(CaseRef(7, 2, pattern, text, 4096).render(), ref);
    text.assign(65536, 3);
    const std::string big = CaseRef(7, 2, pattern, text, 4096).render();
    EXPECT_EQ(big, "ref:7:2:3:65536:4096");
    EXPECT_LT(big.size(), 64u);
    EXPECT_FALSE(CaseRef());
    EXPECT_TRUE(CaseRef().render().empty());
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
    EventRecord ev;
    ev.kind = EventKind::Note;
    ev.setDetail("flightrec test marker");
    FlightRecorder::global().record(ev);
    EXPECT_EQ(FlightRecorder::global().recordedTotal(), before + 1);
}

} // namespace
} // namespace spm::telem
