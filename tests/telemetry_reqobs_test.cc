/**
 * @file
 * Unit tests for the request-observability layer: LogHistogram
 * bucketing and exact-count quantiles against a sorted reference,
 * StageClock attribution, the deterministic exemplar reservoir, the
 * RequestObserver fold (and its runtime off switch), and
 * Snapshot::delta interval arithmetic.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "telemetry/event.hh"
#include "telemetry/metrics.hh"

namespace spm::telem
{
namespace
{

TEST(LogHistogram, LowRangeIsExact)
{
    Registry reg;
    LogHistogram &h = reg.logHistogram("lat");
    // With subBits=3 every integer below 2*8=16 has its own bucket.
    for (int v = 0; v < 16; ++v)
        h.sample(static_cast<double>(v));
    for (std::uint64_t v = 0; v < 16; ++v) {
        EXPECT_EQ(
            LogHistogram::bucketFloor(LogHistogram::bucketIndex(v)), v);
        EXPECT_EQ(h.bucketValue(LogHistogram::bucketIndex(v)), 1u);
    }
    EXPECT_EQ(h.samples(), 16u);
}

TEST(LogHistogram, BucketFloorInvertsBucketIndex)
{
    // The floor of the bucket holding u is <= u, and the next
    // bucket's floor is > u: the index function is a monotone
    // partition of the integers.
    std::vector<std::uint64_t> probes = {0,    1,     15,      16,
                                         17,   100,   1000,    4095,
                                         4096, 65535, 1u << 20, 0};
    probes.push_back((std::uint64_t{1} << 62) + 12345);
    for (std::uint64_t u : probes) {
        const std::size_t idx = LogHistogram::bucketIndex(u);
        EXPECT_LE(LogHistogram::bucketFloor(idx), u);
        EXPECT_GT(LogHistogram::bucketFloor(idx + 1), u);
    }
}

TEST(LogHistogram, RelativeErrorIsBounded)
{
    // subBits=3 promises every recorded value lands in a bucket whose
    // width is at most 2^-3 = 12.5% of its floor.
    std::mt19937_64 rng(20);
    for (int i = 0; i < 2000; ++i) {
        // Shift by at least one: at msb 63 the *next* bucket's floor
        // exceeds 2^64 and the inversion check below has no meaning.
        const std::uint64_t u = rng() >> (1 + rng() % 50);
        const std::size_t idx = LogHistogram::bucketIndex(u);
        const std::uint64_t lo = LogHistogram::bucketFloor(idx);
        const std::uint64_t hi = LogHistogram::bucketFloor(idx + 1);
        ASSERT_LE(lo, u);
        ASSERT_GT(hi, u);
        if (lo >= 16) {
            EXPECT_LE(static_cast<double>(hi - lo),
                      static_cast<double>(lo) / 8.0 + 1.0);
        }
    }
}

TEST(LogHistogram, QuantilesTrackASortedReference)
{
    Registry reg;
    LogHistogram &h = reg.logHistogram("lat");
    std::mt19937_64 rng(77);
    std::vector<double> values;
    // Log-uniform latencies across six decades, like real tails.
    std::uniform_real_distribution<double> exp10(0.0, 6.0);
    for (int i = 0; i < 20000; ++i) {
        const double v = std::floor(std::pow(10.0, exp10(rng)));
        values.push_back(v);
        h.sample(v);
    }
    std::sort(values.begin(), values.end());
    for (double q : {0.5, 0.9, 0.99, 0.999}) {
        const std::size_t rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(values.size())));
        const double exact = values[std::min(rank, values.size()) - 1];
        const double approx = h.quantile(q);
        // Within the 2^-subBits relative-error contract (plus one for
        // the integer rounding of bucket representatives).
        EXPECT_NEAR(approx, exact, exact / 8.0 + 1.0)
            << "q=" << q;
    }
}

TEST(LogHistogram, InvalidSamplesAreCountedApart)
{
    Registry reg;
    LogHistogram &h = reg.logHistogram("lat");
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(-5.0);
    h.sample(3.0);
    EXPECT_EQ(h.invalids(), 2u);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.quantile(0.5), 3.0);
}

TEST(LogHistogram, SnapshotQuantileMatchesLive)
{
    Registry reg;
    LogHistogram &h = reg.logHistogram("lat");
    for (int i = 1; i <= 1000; ++i)
        h.sample(static_cast<double>(i));
    const Snapshot snap = reg.snapshot();
    const Snapshot::LogHistogramData *d = snap.logHistogram("lat");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->samples(), 1000u);
    for (double q : {0.5, 0.9, 0.99})
        EXPECT_DOUBLE_EQ(d->quantile(q), h.quantile(q));
}

TEST(LogHistogram, JsonRoundTripIsLossless)
{
    Registry reg;
    LogHistogram &h = reg.logHistogram("req.latency_ns");
    h.sample(17.0);
    h.sample(123456.0);
    h.sample(std::numeric_limits<double>::quiet_NaN());
    const Snapshot before = reg.snapshot();
    const std::string json = before.toJson();
    const std::optional<Snapshot> after = Snapshot::fromJson(json);
    ASSERT_TRUE(after.has_value());
    const Snapshot::LogHistogramData *d =
        after->logHistogram("req.latency_ns");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->samples(), 2u);
    EXPECT_EQ(d->invalid, 1u);
    // Quantiles computed from the round-tripped buckets match the
    // live histogram's bucket-midpoint answers exactly.
    EXPECT_DOUBLE_EQ(d->quantile(0.5), h.quantile(0.5));
    EXPECT_EQ(after->toJson(), json);
}

TEST(SnapshotDelta, SubtractsCountersAndLogHistograms)
{
    Registry reg;
    Counter &c = reg.counter("served");
    LogHistogram &h = reg.logHistogram("lat");
    c.add(5);
    h.sample(10.0);
    h.sample(20.0);
    const Snapshot earlier = reg.snapshot();
    c.add(3);
    h.sample(1000.0);
    reg.gauge("depth").set(7.0);
    const Snapshot now = reg.snapshot();

    const Snapshot d = now.delta(earlier);
    EXPECT_EQ(d.counterValue("served"), 3u);
    // Gauges are levels, not rates: the delta keeps the current one.
    EXPECT_EQ(d.gaugeValue("depth"), 7.0);
    const Snapshot::LogHistogramData *ld = d.logHistogram("lat");
    ASSERT_NE(ld, nullptr);
    EXPECT_EQ(ld->samples(), 1u);
    // Interval percentiles see only the interval's sample, to within
    // the log-bucket's 12.5% relative-error bound.
    EXPECT_NEAR(ld->quantile(0.5), 1000.0, 1000.0 / 8.0);
}

TEST(SnapshotDelta, CounterResetClampsToCurrent)
{
    Registry a;
    a.counter("served").add(10);
    const Snapshot earlier = a.snapshot();
    a.reset();
    a.counter("served").add(4);
    const Snapshot now = a.snapshot();
    // A restarted process would otherwise render an underflowed rate.
    EXPECT_EQ(now.delta(earlier).counterValue("served"), 4u);
}

TEST(StageClock, AttributesTimeToMarkedStages)
{
    setSamplingEnabled(true);
    StageClock clock;
    clock.start();
    ASSERT_TRUE(clock.running());
    clock.mark(Stage::Admit);
    clock.note(Stage::QueueWait, 12345);
    clock.mark(Stage::Kernel);
    clock.addBeats(99);
    const auto at = [&](Stage s) {
        return clock.read().stageNs[static_cast<std::size_t>(s)];
    };
    EXPECT_EQ(at(Stage::QueueWait), 12345u);
    EXPECT_GT(at(Stage::Kernel) + at(Stage::Admit), 0u);
    EXPECT_EQ(at(Stage::Journal), 0u);
    EXPECT_EQ(clock.beats(), 99u);
    EXPECT_GT(clock.read().totalNs, 0u);
    setSamplingEnabled(false);
}

TEST(StageClock, MarksReadInNanosecondsWithinTheTotal)
{
    setSamplingEnabled(true);
    StageClock clock;
    clock.start();
    clock.mark(Stage::Admit);
    const std::uint64_t until = nowNs() + 2'000'000;
    while (nowNs() < until) {
    }
    clock.mark(Stage::Kernel);
    clock.mark(Stage::Commit);
    const StageClock::Reading r = clock.read();
    setSamplingEnabled(false);
    std::uint64_t marked = 0;
    for (std::uint64_t ns : r.stageNs)
        marked += ns;
    EXPECT_GE(r.stageNs[static_cast<std::size_t>(Stage::Kernel)],
              1'900'000u);
    EXPECT_LE(marked, r.totalNs);
}

TEST(StageClock, DisabledSamplingDisarms)
{
    setSamplingEnabled(false);
    StageClock clock;
    clock.start();
    EXPECT_FALSE(clock.running());
    clock.mark(Stage::Kernel);
    clock.note(Stage::QueueWait, 1000);
    clock.addBeats(5);
    const StageClock::Reading r = clock.read();
    EXPECT_EQ(r.stageNs[static_cast<std::size_t>(Stage::Kernel)], 0u);
    EXPECT_EQ(r.stageNs[static_cast<std::size_t>(Stage::QueueWait)], 0u);
    EXPECT_EQ(clock.beats(), 0u);
    EXPECT_EQ(r.totalNs, 0u);
}

TEST(RequestObserver, FoldsClocksIntoReqHistograms)
{
    setSamplingEnabled(true);
    Registry reg;
    RequestObserver obs(reg, "test", nullptr);
    StageClock clock;
    clock.start();
    clock.note(Stage::QueueWait, 500);
    clock.mark(Stage::Kernel);
    clock.addBeats(64);
    obs.observe(clock, 1, false, nullptr, [] { return CaseRef(); });
    obs.noteQueueWait(700);
    setSamplingEnabled(false);

    const Snapshot snap = reg.snapshot();
    const Snapshot::LogHistogramData *lat =
        snap.logHistogram("req.latency_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->samples(), 1u);
    EXPECT_NEAR(snap.logHistogram("req.latency_beats")->quantile(0.5), 64.0,
                64.0 / 8.0);
    const Snapshot::LogHistogramData *qw =
        snap.logHistogram("req.stage.queue_wait_ns");
    ASSERT_NE(qw, nullptr);
    // One wait from the clock, one from noteQueueWait.
    EXPECT_EQ(qw->samples(), 2u);
    // Unmarked stages record nothing (no zero-spam).
    EXPECT_EQ(snap.logHistogram("req.stage.journal_ns")->samples(), 0u);
}

TEST(RequestObserver, DisarmedClockRecordsNothing)
{
    setSamplingEnabled(false);
    Registry reg;
    ExemplarReservoir res;
    RequestObserver obs(reg, "test", &res);
    StageClock clock;
    clock.start();
    clock.note(Stage::QueueWait, 500);
    clock.mark(Stage::Kernel);
    clock.addBeats(64);
    obs.observe(clock, 1, true, "forced", [] { return CaseRef(); });
    obs.noteQueueWait(700);

    // The observer registered its req.* histograms; none has a sample.
    const Snapshot snap = reg.snapshot();
    ASSERT_EQ(snap.logHistograms.size(), 2 + stageCount);
    for (const auto &[name, h] : snap.logHistograms) {
        EXPECT_EQ(name.rfind("req.", 0), 0u) << name;
        EXPECT_EQ(h.samples(), 0u) << name;
    }
    EXPECT_EQ(res.offered(), 0u);
}

TEST(ExemplarReservoir, SlowestClassKeepsTheLargestLatencies)
{
    ExemplarReservoir res(4, 0, 0);
    int built = 0;
    // Descending latencies: the first four offers fill the class and
    // nothing after them ever displaces an entry.
    for (std::uint64_t i = 100; i >= 1; --i) {
        Exemplar e;
        e.event.requestId = i;
        e.latencyNs = i * 10;
        res.offer(std::move(e), [&] {
            ++built;
            return CaseRef(i, 2, std::vector<Symbol>{1},
                           std::vector<Symbol>{0, 1});
        });
    }
    const std::vector<Exemplar> slow = res.slowest();
    ASSERT_EQ(slow.size(), 4u);
    EXPECT_EQ(slow[0].latencyNs, 1000u);
    EXPECT_EQ(slow[3].latencyNs, 970u);
    EXPECT_EQ(slow[0].event.caseRef.render(), "l1:2:1:0.1");
    EXPECT_EQ(slow[0].event.requestId, 100u);
    // The case-id builder ran only for the four retained offers.
    EXPECT_EQ(built, 4);
    EXPECT_EQ(res.offered(), 100u);
}

TEST(ExemplarReservoir, UniformClassIsDeterministic)
{
    const auto run = [] {
        ExemplarReservoir res(0, 8, 0, 0x5eed);
        for (std::uint64_t i = 0; i < 500; ++i) {
            Exemplar e;
            e.event.requestId = i;
            e.latencyNs = 42;
            res.offer(std::move(e), [] { return CaseRef(); });
        }
        std::vector<std::uint64_t> ids;
        for (const Exemplar &e : res.uniform())
            ids.push_back(e.event.requestId);
        return ids;
    };
    const auto a = run();
    const auto b = run();
    EXPECT_EQ(a.size(), 8u);
    // Same seed, same offer sequence -> identical retained sample.
    EXPECT_EQ(a, b);
}

TEST(ExemplarReservoir, ForcedRingNeverDropsForRegularTraffic)
{
    ExemplarReservoir res(2, 2, 3);
    for (std::uint64_t i = 0; i < 50; ++i) {
        Exemplar e;
        e.event.requestId = i;
        e.latencyNs = 1000000; // every regular offer is "slow"
        res.offer(std::move(e), [] { return CaseRef(); });
    }
    for (std::uint64_t i = 100; i < 105; ++i) {
        Exemplar e;
        e.event.requestId = i;
        e.latencyNs = 1; // fast, would never be tail-sampled
        e.forced = true;
        e.reason = "watchdog trip";
        res.offer(std::move(e), [] { return CaseRef(); });
    }
    const std::vector<Exemplar> forced = res.forced();
    // Ring of 3: the newest three forced requests, oldest first.
    ASSERT_EQ(forced.size(), 3u);
    EXPECT_EQ(forced[0].event.requestId, 102u);
    EXPECT_EQ(forced[2].event.requestId, 104u);
    EXPECT_STREQ(forced[0].reason, "watchdog trip");
    EXPECT_NE(res.renderText().find("watchdog trip"), std::string::npos);
}

} // namespace
} // namespace spm::telem
