/**
 * @file
 * The unified metrics registry.
 *
 * Every simulated component used to carry its own ad-hoc counter
 * struct (Engine's StatGroup, HostBusModel's transfer counters, the
 * service's Stats); this module replaces them with one substrate so
 * throughput, degradation and utilization claims are all measured by
 * the same instrument. Three metric kinds cover everything the
 * reproduction reports:
 *
 *   Counter       monotonically increasing count (beats, chars, chunks);
 *   Gauge         last-written level (queue depth, thread count);
 *   LogHistogram  log-scaled (HDR-style) distribution over the
 *                 non-negative integers with bounded relative error
 *                 and p50/p90/p99/p999 extraction by exact-count rank
 *                 (request latency in beats and wall-ns, per-chunk
 *                 beats, batch widths, settle effort).
 *
 * Collection is cheap and thread-safe: each metric owns a small power-
 * of-two array of cache-line padded relaxed-atomic cells, and every
 * thread writes the cell its thread-local stripe index selects, so
 * concurrent writers (the sharded service's workers, the gate
 * simulator inside them) never contend on one line. Reading is the
 * periodic aggregation: value() and snapshot() sum the stripes.
 *
 * A Snapshot is the registry frozen at one instant: it can be merged
 * with other snapshots (the sharded service merges its shards),
 * rendered as a human table (src/util/table), as Prometheus-style
 * exposition text, or as a JSON object that Snapshot::fromJson and
 * tools/trace_view read back.
 */

#ifndef SPM_TELEMETRY_METRICS_HH
#define SPM_TELEMETRY_METRICS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace spm::telem
{

/**
 * Global kill-switch for hot-path distribution sampling (the
 * SPM_THIST macro): per-beat histogram samples are skipped while
 * disabled so the beat-rate cost of telemetry can be measured and
 * turned off at runtime. Counters and gauges are not affected; they
 * are load-bearing statistics, not optional instrumentation.
 */
void setSamplingEnabled(bool enabled);
bool samplingEnabled();

/** One cache line of counter state; padded to avoid false sharing. */
struct alignas(64) StripeCell
{
    std::atomic<std::uint64_t> v{0};
};

/** Stable thread-local stripe index (assigned on first use). */
std::size_t threadStripe();

/** A named monotonically increasing counter with striped cells. */
class Counter
{
  public:
    Counter(std::string metric_name, std::size_t stripes);

    Counter(const Counter &) = delete;
    Counter &operator=(const Counter &) = delete;

    void add(std::uint64_t by = 1)
    {
        cells[threadStripe() & mask].v.fetch_add(
            by, std::memory_order_relaxed);
    }
    void increment(std::uint64_t by = 1) { add(by); }

    /** Aggregate across stripes. */
    std::uint64_t value() const;

    void reset();

    const std::string &name() const { return metricName; }

  private:
    std::string metricName;
    std::size_t mask;
    std::unique_ptr<StripeCell[]> cells;
};

/** A named last-write-wins level. */
class Gauge
{
  public:
    explicit Gauge(std::string metric_name)
        : metricName(std::move(metric_name)) {}

    Gauge(const Gauge &) = delete;
    Gauge &operator=(const Gauge &) = delete;

    void set(double v) { level.store(v, std::memory_order_relaxed); }
    double value() const { return level.load(std::memory_order_relaxed); }

    const std::string &name() const { return metricName; }

  private:
    std::string metricName;
    std::atomic<double> level{0.0};
};

/**
 * A named log-scaled histogram over the non-negative integers
 * (HDR-histogram bucketing): values below 16 get one exact bucket
 * each, and every further power-of-two range is split into 8
 * sub-buckets, so the relative quantization error is bounded by 12.5%
 * everywhere. The whole uint64 range is covered by 496 dense buckets
 * -- about 4 KB per stripe -- which is what makes p999 extraction
 * from a latency stream cheap enough to record per request. Samples
 * are rounded to the nearest integer; NaN and negative values land in
 * an explicit invalid cell.
 *
 * Quantiles are exact-count ranks over the recorded buckets: the
 * value returned for quantile(q) is the representative of the bucket
 * holding the ceil(q*n)-th smallest sample, exact in the low range
 * and within the relative-error bound above it.
 */
class LogHistogram
{
  public:
    /** Sub-buckets per power-of-two range, as a bit count. */
    static constexpr unsigned subBits = 3;
    /** Dense buckets covering the whole uint64 range. */
    static constexpr std::size_t bucketCount = std::size_t{65 - subBits}
                                               << subBits;

    /**
     * @param metric_name registry name
     * @param stripes concurrency stripes (power of two)
     */
    LogHistogram(std::string metric_name, std::size_t stripes);

    ~LogHistogram();

    LogHistogram(const LogHistogram &) = delete;
    LogHistogram &operator=(const LogHistogram &) = delete;

    /** @p count samples of @p v: one bucket add and one sum add. */
    void sample(double v, std::uint64_t count = 1);

    std::uint64_t bucketValue(std::size_t i) const;
    std::uint64_t invalids() const;
    /** Valid samples (invalids excluded). */
    std::uint64_t samples() const;
    /** Sum of valid samples, rounded to integers at sample time. */
    double sum() const;
    /** Exact-count rank quantile; 0 when empty. */
    double quantile(double q) const;

    void reset();

    const std::string &name() const { return metricName; }

    /** Dense index of the bucket holding integer value @p u. */
    static std::size_t bucketIndex(std::uint64_t u);
    /** Smallest integer value mapping to bucket @p index. */
    static std::uint64_t bucketFloor(std::size_t index);

  private:
    /** Cell layout per stripe: buckets, then invalid. */
    static std::size_t cellIndex(std::size_t stripe, std::size_t slot)
    {
        return stripe * (bucketCount + 1) + slot;
    }

    /** The cell array, allocating it on first use. */
    std::atomic<std::uint64_t> *liveCells();

    std::string metricName;
    std::size_t stripes;
    /**
     * The bucket cells, allocated (zeroed) by the first sample(): a
     * histogram never written -- a throwaway front end's -- costs no
     * 4 KB array per stripe. Null reads as all-zero.
     */
    std::atomic<std::atomic<std::uint64_t> *> cells{nullptr};
    std::unique_ptr<StripeCell[]> sumCells; ///< sum in whole units
};

/** A registry frozen at one instant; plain data, merge- and render-able. */
struct Snapshot
{
    struct LogHistogramData
    {
        /** Dense low-index prefix; trailing zero buckets trimmed. */
        std::vector<std::uint64_t> buckets;
        std::uint64_t invalid = 0;
        double sum = 0;

        std::uint64_t samples() const;
        double mean() const;
        /** Exact-count rank quantile; 0 when empty. */
        double quantile(double q) const;
    };

    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, LogHistogramData>> logHistograms;

    /** Insert-or-overwrite helpers (keep entries sorted by name). */
    void setCounter(const std::string &name, std::uint64_t v);
    void setGauge(const std::string &name, double v);
    void setLogHistogram(const std::string &name, LogHistogramData h);

    /** Look up a counter; 0 when absent. */
    std::uint64_t counterValue(const std::string &name) const;
    /** Look up a gauge; nullopt when absent. */
    std::optional<double> gaugeValue(const std::string &name) const;
    /** Look up a log histogram; nullptr when absent. */
    const LogHistogramData *logHistogram(const std::string &name) const;

    /**
     * Merge @p other in: counters and histogram cells add, gauges
     * take the other side's value when this side lacks the entry and
     * add otherwise (the sharded service sums queue depths across
     * shards).
     */
    void merge(const Snapshot &other);

    /**
     * The change since @p earlier: counters and histogram cells
     * subtract (clamped at zero; a reset between the two snapshots
     * yields the current values rather than garbage), gauges keep
     * this side's level, and metrics absent from @p earlier pass
     * through whole. This is what a live dashboard polls: delta over
     * the refresh interval gives rolling rates and *interval*
     * percentiles instead of since-boot ones.
     */
    Snapshot delta(const Snapshot &earlier) const;

    /**
     * "name = value" stat lines, sorted; histograms summarized. A
     * component prefix ("engine.") reproduces the legacy statsDump
     * format from a registry holding bare metric names.
     */
    std::string renderText(const std::string &prefix = "") const;

    /** Human table via util/table. */
    std::string renderTable(const std::string &title = "telemetry") const;

    /** Prometheus-style exposition text (names sanitized, spm_ prefix). */
    std::string renderPrometheus() const;

    /** One JSON object, keys sorted, stable across runs. */
    std::string toJson() const;

    /** Parse toJson() output; nullopt on malformed input. */
    static std::optional<Snapshot> fromJson(const std::string &text);
};

/**
 * A registry of named metrics. Each component owns one (the engine,
 * each service front end); get-or-create accessors return stable
 * references that stay valid for the registry's lifetime.
 */
class Registry
{
  public:
    /** @param stripe_count concurrency stripes, rounded up to 2^n. */
    explicit Registry(std::size_t stripe_count = 1);

    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Get or create a counter. */
    Counter &counter(const std::string &name);
    /** Look up an existing counter; panics when missing. */
    const Counter &counter(const std::string &name) const;

    /** Get or create a gauge. */
    Gauge &gauge(const std::string &name);

    /** Get or create a log-scaled histogram. */
    LogHistogram &logHistogram(const std::string &name);
    /** Look up an existing log histogram; panics when missing. */
    const LogHistogram &logHistogram(const std::string &name) const;

    /** Aggregate everything registered into a Snapshot. */
    Snapshot snapshot() const;

    /** Shorthand: snapshot().renderText(). */
    std::string renderText() const { return snapshot().renderText(); }

    /** Zero every registered metric (new measurement interval). */
    void reset();

    std::size_t metricCount() const;

  private:
    std::size_t stripes;
    mutable std::mutex mu;
    std::vector<std::unique_ptr<Counter>> counters;
    std::vector<std::unique_ptr<Gauge>> gauges;
    std::vector<std::unique_ptr<LogHistogram>> logHists;
};

} // namespace spm::telem

#endif // SPM_TELEMETRY_METRICS_HH
