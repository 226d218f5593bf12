/**
 * @file
 * Unit tests for the metrics registry: striped aggregation under
 * concurrent writers, snapshot merge semantics (the sharded service's
 * aggregation path), the invalid cell, and the four render formats
 * round-tripping through trace_view's JSON reader. LogHistogram
 * bucketing and quantiles are covered in telemetry_reqobs_test.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <stdexcept>
#include <thread>
#include <vector>

#include "telemetry/metrics.hh"

namespace spm::telem
{
namespace
{

TEST(Counter, AddAndValue)
{
    Registry reg;
    Counter &c = reg.counter("beats");
    EXPECT_EQ(c.value(), 0u);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(Counter, GetOrCreateReturnsSameInstance)
{
    Registry reg;
    Counter &a = reg.counter("x");
    Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b);
    a.add(3);
    EXPECT_EQ(b.value(), 3u);
    EXPECT_EQ(reg.metricCount(), 1u);
}

TEST(Counter, ConstLookupPanicsWhenMissing)
{
    Registry reg;
    const Registry &cref = reg;
    EXPECT_THROW(cref.counter("nonexistent"), std::logic_error);
}

TEST(Counter, ConcurrentWritersSumExactly)
{
    Registry reg(8);
    Counter &c = reg.counter("hits");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 50000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&c] {
            for (int i = 0; i < kPerThread; ++i)
                c.add();
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(c.value(),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Gauge, LastWriteWins)
{
    Registry reg;
    Gauge &g = reg.gauge("depth");
    EXPECT_EQ(g.value(), 0.0);
    g.set(7.0);
    g.set(3.5);
    EXPECT_EQ(g.value(), 3.5);
}

TEST(LogHistogram, SumAndMeanTrackSamples)
{
    Registry reg;
    LogHistogram &h = reg.logHistogram("v");
    h.sample(10.0);
    h.sample(20.0);
    h.sample(30.0);
    EXPECT_EQ(h.sum(), 60.0);
    const Snapshot snap = reg.snapshot();
    const Snapshot::LogHistogramData *d = snap.logHistogram("v");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->mean(), 20.0);
}

TEST(LogHistogram, UnwrittenHistogramReadsEmpty)
{
    // The cells are allocated by the first sample(); until then every
    // read is zero and reset() is a no-op.
    Registry reg;
    LogHistogram &h = reg.logHistogram("idle");
    h.reset();
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.invalids(), 0u);
    EXPECT_EQ(h.bucketValue(3), 0u);
    EXPECT_EQ(h.quantile(0.5), 0.0);
    const Snapshot snap = reg.snapshot();
    const Snapshot::LogHistogramData *d = snap.logHistogram("idle");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->samples(), 0u);
}

TEST(LogHistogram, ConcurrentFirstSamplesAllCount)
{
    // Every thread may be the first writer; whichever allocation wins,
    // no sample is lost.
    Registry reg(8);
    LogHistogram &h = reg.logHistogram("race");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 1000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&h] {
            for (int i = 0; i < kPerThread; ++i)
                h.sample(5.0);
        });
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(h.samples(), static_cast<std::uint64_t>(kThreads) * kPerThread);
    EXPECT_EQ(h.bucketValue(LogHistogram::bucketIndex(5)),
              static_cast<std::uint64_t>(kThreads) * kPerThread);
}

TEST(Snapshot, MergeAddsCountersAndHistogramCells)
{
    Registry a;
    Registry b;
    a.counter("served").add(3);
    b.counter("served").add(4);
    b.counter("only_b").add(1);
    a.logHistogram("lat").sample(1.0);
    b.logHistogram("lat").sample(1.0);
    b.logHistogram("lat").sample(700.0);
    a.gauge("depth").set(2.0);
    b.gauge("depth").set(3.0);
    b.gauge("threads").set(4.0);

    Snapshot s = a.snapshot();
    s.merge(b.snapshot());

    EXPECT_EQ(s.counterValue("served"), 7u);
    EXPECT_EQ(s.counterValue("only_b"), 1u);
    const Snapshot::LogHistogramData *d = s.logHistogram("lat");
    ASSERT_NE(d, nullptr);
    // a's trimmed bucket vector is shorter than b's; merge widens it.
    ASSERT_EQ(d->buckets.size(), LogHistogram::bucketIndex(700) + 1);
    EXPECT_EQ(d->buckets[LogHistogram::bucketIndex(1)], 2u);
    EXPECT_EQ(d->buckets[LogHistogram::bucketIndex(700)], 1u);
    EXPECT_EQ(d->samples(), 3u);
    EXPECT_EQ(d->sum, 702.0);
    // Gauges sum when both sides have the entry (queue depths across
    // shards); absent entries are taken as-is.
    EXPECT_EQ(s.gaugeValue("depth"), 5.0);
    EXPECT_EQ(s.gaugeValue("threads"), 4.0);
}

TEST(Snapshot, RenderTextMatchesLegacyDumpFormat)
{
    Registry reg;
    reg.counter("beats").add(12);
    reg.counter("evaluations").add(48);
    const std::string text = reg.snapshot().renderText("engine.");
    EXPECT_NE(text.find("engine.beats = 12"), std::string::npos);
    EXPECT_NE(text.find("engine.evaluations = 48"), std::string::npos);
}

TEST(Snapshot, RenderPrometheusSanitizesNames)
{
    Registry reg;
    reg.counter("engine.beats").add(5);
    reg.gauge("queue depth").set(2);
    reg.logHistogram("req.lat").sample(1.0);
    const std::string prom = reg.snapshot().renderPrometheus();
    EXPECT_NE(prom.find("spm_engine_beats 5"), std::string::npos);
    EXPECT_NE(prom.find("spm_queue_depth 2"), std::string::npos);
    // A summary: quantile lines, then _sum and _count.
    EXPECT_NE(prom.find("# TYPE spm_req_lat summary"), std::string::npos);
    EXPECT_NE(prom.find("spm_req_lat{quantile=\"0.99\"} 1"),
              std::string::npos);
    EXPECT_NE(prom.find("spm_req_lat_count 1"), std::string::npos);
}

TEST(Snapshot, JsonRoundTripIsLossless)
{
    Registry reg(4);
    reg.counter("served").add(1234567);
    reg.gauge("depth").set(3.25);
    LogHistogram &h = reg.logHistogram("lat");
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(3.0);
    h.sample(64.0);
    h.sample(100000.0);

    const Snapshot before = reg.snapshot();
    const std::string json = before.toJson();
    const std::optional<Snapshot> after = Snapshot::fromJson(json);
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->counterValue("served"), 1234567u);
    EXPECT_EQ(after->gaugeValue("depth"), 3.25);
    const Snapshot::LogHistogramData *d = after->logHistogram("lat");
    ASSERT_NE(d, nullptr);
    EXPECT_EQ(d->buckets, before.logHistogram("lat")->buckets);
    EXPECT_EQ(d->invalid, 1u);
    EXPECT_EQ(d->sum, 100067.0);
    // And the round trip is a fixed point.
    EXPECT_EQ(after->toJson(), json);
}

TEST(Snapshot, FromJsonRejectsGarbage)
{
    EXPECT_FALSE(Snapshot::fromJson("").has_value());
    EXPECT_FALSE(Snapshot::fromJson("not json").has_value());
    EXPECT_FALSE(Snapshot::fromJson("[1,2,3]").has_value());
    EXPECT_FALSE(Snapshot::fromJson("{\"counters\":7}").has_value());
}

TEST(Registry, ResetZeroesEverything)
{
    Registry reg;
    reg.counter("c").add(5);
    reg.gauge("g").set(5);
    reg.logHistogram("h").sample(1.0);
    reg.logHistogram("h").sample(std::numeric_limits<double>::quiet_NaN());
    reg.reset();
    EXPECT_EQ(reg.counter("c").value(), 0u);
    EXPECT_EQ(reg.gauge("g").value(), 0.0);
    EXPECT_EQ(reg.logHistogram("h").samples(), 0u);
    EXPECT_EQ(reg.logHistogram("h").invalids(), 0u);
    EXPECT_EQ(reg.logHistogram("h").sum(), 0.0);
}

TEST(LogHistogram, NanSamplesLandInTheInvalidCell)
{
    Registry reg;
    LogHistogram &h = reg.logHistogram("lat");
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(std::numeric_limits<double>::quiet_NaN());
    h.sample(1.0);
    // Invalid samples are counted apart and excluded from the sample
    // count and the sum (NaN would otherwise poison both).
    EXPECT_EQ(h.invalids(), 2u);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.sum(), 1.0);
}

TEST(LogHistogram, InvalidCountSurvivesEveryRender)
{
    Registry reg;
    reg.logHistogram("lat").sample(std::numeric_limits<double>::quiet_NaN());
    const Snapshot snap = reg.snapshot();
    EXPECT_NE(snap.renderText().find("invalid:1"), std::string::npos);
    EXPECT_NE(snap.renderTable().find("invalid=1"), std::string::npos);
    EXPECT_NE(snap.renderPrometheus().find(
                  "spm_lat_edge{kind=\"invalid\"} 1"),
              std::string::npos);
}

TEST(Snapshot, FromJsonIgnoresLegacyFields)
{
    // Dumps written before the fixed-bucket histogram was retired carry
    // a "histograms" object and a per-histogram "subbits" field; both
    // are skipped, and everything else still parses.
    const std::string legacy =
        "{\"counters\":{\"served\":2},\"gauges\":{},\"histograms\":{"
        "\"old\":{\"lo\":0,\"hi\":4,\"buckets\":[1,0],"
        "\"under\":0,\"over\":0,\"sum\":1}},"
        "\"loghistograms\":{\"lat\":{\"subbits\":3,\"buckets\":[0,2],"
        "\"invalid\":0,\"sum\":2}}}";
    const std::optional<Snapshot> snap = Snapshot::fromJson(legacy);
    ASSERT_TRUE(snap.has_value());
    EXPECT_EQ(snap->counterValue("served"), 2u);
    ASSERT_NE(snap->logHistogram("lat"), nullptr);
    EXPECT_EQ(snap->logHistogram("lat")->samples(), 2u);
    EXPECT_EQ(snap->toJson().find("subbits"), std::string::npos);
}

TEST(Snapshot, RenderPrometheusEscapesHostileMetricNames)
{
    Registry reg;
    reg.counter("bad\"name{with}\nnewline").add(1);
    const std::string prom = reg.snapshot().renderPrometheus();
    // Every non-[a-zA-Z0-9_] byte is replaced, so no quote, brace or
    // newline from the metric name can corrupt the exposition format.
    EXPECT_NE(prom.find("spm_bad_name_with__newline 1"),
              std::string::npos);
    std::size_t pos = prom.find("spm_bad");
    ASSERT_NE(pos, std::string::npos);
    const std::string metricLine =
        prom.substr(pos, prom.find('\n', pos) - pos);
    EXPECT_EQ(metricLine.find('"'), std::string::npos);
    EXPECT_EQ(metricLine.find('{'), std::string::npos);
}

TEST(Snapshot, ConcurrentSnapshotWhileWritingIsCoherent)
{
    // The registry contract: snapshot() may run concurrently with
    // writers and must see a value no larger than the true total and
    // no tearing (TSan runs this test in CI).
    Registry reg(4);
    Counter &c = reg.counter("served");
    LogHistogram &h = reg.logHistogram("lat_ns");
    constexpr int kThreads = 4;
    constexpr int kPerThread = 20000;
    std::atomic<bool> go{false};
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&] {
            while (!go.load())
                std::this_thread::yield();
            for (int i = 0; i < kPerThread; ++i) {
                c.add();
                h.sample(static_cast<double>(i));
            }
        });
    go.store(true);
    const std::uint64_t total =
        static_cast<std::uint64_t>(kThreads) * kPerThread;
    for (int i = 0; i < 50; ++i) {
        const Snapshot snap = reg.snapshot();
        EXPECT_LE(snap.counterValue("served"), total);
        const Snapshot::LogHistogramData *d = snap.logHistogram("lat_ns");
        ASSERT_NE(d, nullptr);
        EXPECT_LE(d->samples(), total);
    }
    for (auto &t : ts)
        t.join();
    EXPECT_EQ(reg.counter("served").value(), total);
    EXPECT_EQ(h.samples(), total);
    EXPECT_EQ(reg.snapshot().logHistogram("lat_ns")->samples(), total);
}

} // namespace
} // namespace spm::telem
