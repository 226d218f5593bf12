#include "telemetry/metrics.hh"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "telemetry/jsonlite.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace spm::telem
{

namespace
{

std::atomic<bool> gSampling{true};

/** Format a double the way the JSON snapshot and stat lines expect. */
std::string
formatDouble(double v)
{
    if (v == static_cast<double>(static_cast<long long>(v)) &&
        std::abs(v) < 1e15) {
        return std::to_string(static_cast<long long>(v));
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", v);
    return buf;
}

template <typename Vec>
auto
findEntry(Vec &entries, const std::string &name)
{
    return std::find_if(entries.begin(), entries.end(),
                        [&](const auto &e) { return e.first == name; });
}

template <typename Vec, typename Value>
void
setSorted(Vec &entries, const std::string &name, Value &&v)
{
    auto it = findEntry(entries, name);
    if (it != entries.end()) {
        it->second = std::forward<Value>(v);
        return;
    }
    auto pos = std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const auto &e, const std::string &n) { return e.first < n; });
    entries.insert(pos, {name, std::forward<Value>(v)});
}

/** Prometheus metric names: [a-zA-Z0-9_], dots become underscores. */
std::string
promName(const std::string &name)
{
    std::string out = "spm_";
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out;
}

} // namespace

void
setSamplingEnabled(bool enabled)
{
    gSampling.store(enabled, std::memory_order_relaxed);
}

bool
samplingEnabled()
{
    return gSampling.load(std::memory_order_relaxed);
}

std::size_t
threadStripe()
{
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t stripe =
        next.fetch_add(1, std::memory_order_relaxed);
    return stripe;
}

// ---------------------------------------------------------------- Counter

Counter::Counter(std::string metric_name, std::size_t stripes)
    : metricName(std::move(metric_name))
{
    std::size_t n = std::bit_ceil(stripes);
    mask = n - 1;
    cells = std::make_unique<StripeCell[]>(n);
}

std::uint64_t
Counter::value() const
{
    std::uint64_t total = 0;
    for (std::size_t i = 0; i <= mask; ++i)
        total += cells[i].v.load(std::memory_order_relaxed);
    return total;
}

void
Counter::reset()
{
    for (std::size_t i = 0; i <= mask; ++i)
        cells[i].v.store(0, std::memory_order_relaxed);
}

// ----------------------------------------------------------- LogHistogram

std::size_t
LogHistogram::bucketIndex(std::uint64_t u)
{
    constexpr std::uint64_t sub = std::uint64_t{1} << subBits;
    if (u < 2 * sub)
        return static_cast<std::size_t>(u); // exact low range
    const unsigned msb = static_cast<unsigned>(std::bit_width(u)) - 1;
    const unsigned shift = msb - subBits;
    return static_cast<std::size_t>((shift + 1) * sub + (u >> shift) - sub);
}

std::uint64_t
LogHistogram::bucketFloor(std::size_t index)
{
    constexpr std::uint64_t sub = std::uint64_t{1} << subBits;
    if (index < 2 * sub)
        return index;
    const std::size_t shift = index / sub - 1;
    return (sub + index % sub) << shift;
}

LogHistogram::LogHistogram(std::string metric_name,
                           std::size_t stripe_count)
    : metricName(std::move(metric_name)),
      stripes(std::bit_ceil(stripe_count))
{
    sumCells = std::make_unique<StripeCell[]>(stripes);
}

LogHistogram::~LogHistogram()
{
    delete[] cells.load(std::memory_order_acquire);
}

std::atomic<std::uint64_t> *
LogHistogram::liveCells()
{
    std::atomic<std::uint64_t> *c = cells.load(std::memory_order_acquire);
    if (c != nullptr)
        return c;
    // First writer allocates; a racing writer that loses frees its
    // array and uses the winner's.
    auto *fresh = new std::atomic<std::uint64_t>[stripes * (bucketCount + 1)]();
    if (cells.compare_exchange_strong(c, fresh, std::memory_order_acq_rel))
        return fresh;
    delete[] fresh;
    return c;
}

void
LogHistogram::sample(double v, std::uint64_t count)
{
    std::atomic<std::uint64_t> *c = liveCells();
    std::size_t stripe = threadStripe() & (stripes - 1);
    if (std::isnan(v) || v < 0.0) {
        c[cellIndex(stripe, bucketCount)].fetch_add(
            count, std::memory_order_relaxed);
        return;
    }
    // Latencies are integer beat / nanosecond counts; round and clamp
    // to the llround-safe range (the top buckets absorb the rest).
    std::uint64_t u = v >= 9.0e18
                          ? std::uint64_t{9'000'000'000'000'000'000}
                          : static_cast<std::uint64_t>(std::llround(v));
    c[cellIndex(stripe, bucketIndex(u))].fetch_add(
        count, std::memory_order_relaxed);
    sumCells[stripe].v.fetch_add(u * count, std::memory_order_relaxed);
}

std::uint64_t
LogHistogram::bucketValue(std::size_t i) const
{
    spm_assert(i < bucketCount, "log histogram '", metricName,
               "': bucket ", i, " out of range");
    const std::atomic<std::uint64_t> *c =
        cells.load(std::memory_order_acquire);
    std::uint64_t total = 0;
    for (std::size_t s = 0; c != nullptr && s < stripes; ++s)
        total += c[cellIndex(s, i)].load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
LogHistogram::invalids() const
{
    const std::atomic<std::uint64_t> *c =
        cells.load(std::memory_order_acquire);
    std::uint64_t total = 0;
    for (std::size_t s = 0; c != nullptr && s < stripes; ++s)
        total +=
            c[cellIndex(s, bucketCount)].load(std::memory_order_relaxed);
    return total;
}

std::uint64_t
LogHistogram::samples() const
{
    const std::atomic<std::uint64_t> *c =
        cells.load(std::memory_order_acquire);
    std::uint64_t total = 0;
    for (std::size_t s = 0; c != nullptr && s < stripes; ++s)
        for (std::size_t i = 0; i < bucketCount; ++i)
            total += c[cellIndex(s, i)].load(std::memory_order_relaxed);
    return total;
}

double
LogHistogram::sum() const
{
    std::uint64_t total = 0;
    for (std::size_t s = 0; s < stripes; ++s)
        total += sumCells[s].v.load(std::memory_order_relaxed);
    return static_cast<double>(total);
}

double
LogHistogram::quantile(double q) const
{
    Snapshot::LogHistogramData data;
    data.buckets.resize(bucketCount);
    for (std::size_t i = 0; i < bucketCount; ++i)
        data.buckets[i] = bucketValue(i);
    return data.quantile(q);
}

void
LogHistogram::reset()
{
    std::atomic<std::uint64_t> *c = cells.load(std::memory_order_acquire);
    for (std::size_t i = 0; c != nullptr && i < stripes * (bucketCount + 1);
         ++i)
        c[i].store(0, std::memory_order_relaxed);
    for (std::size_t s = 0; s < stripes; ++s)
        sumCells[s].v.store(0, std::memory_order_relaxed);
}

// --------------------------------------------------------------- Snapshot

std::uint64_t
Snapshot::LogHistogramData::samples() const
{
    std::uint64_t total = 0;
    for (std::uint64_t b : buckets)
        total += b;
    return total;
}

double
Snapshot::LogHistogramData::mean() const
{
    std::uint64_t n = samples();
    return n ? sum / static_cast<double>(n) : 0.0;
}

double
Snapshot::LogHistogramData::quantile(double q) const
{
    std::uint64_t n = samples();
    if (n == 0)
        return 0.0;
    double qr = std::ceil(std::clamp(q, 0.0, 1.0) *
                          static_cast<double>(n));
    std::uint64_t rank = std::clamp<std::uint64_t>(
        static_cast<std::uint64_t>(qr), 1, n);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
        seen += buckets[i];
        if (seen >= rank) {
            std::uint64_t floor_v = LogHistogram::bucketFloor(i);
            std::uint64_t width = LogHistogram::bucketFloor(i + 1) - floor_v;
            // Bucket midpoint above the exact range, the value itself
            // inside it.
            return static_cast<double>(floor_v) +
                   (width > 1 ? static_cast<double>(width - 1) / 2.0
                              : 0.0);
        }
    }
    return 0.0;
}

void
Snapshot::setCounter(const std::string &name, std::uint64_t v)
{
    setSorted(counters, name, v);
}

void
Snapshot::setGauge(const std::string &name, double v)
{
    setSorted(gauges, name, v);
}

void
Snapshot::setLogHistogram(const std::string &name, LogHistogramData h)
{
    setSorted(logHistograms, name, std::move(h));
}

std::uint64_t
Snapshot::counterValue(const std::string &name) const
{
    auto it = findEntry(counters, name);
    return it == counters.end() ? 0 : it->second;
}

std::optional<double>
Snapshot::gaugeValue(const std::string &name) const
{
    auto it = findEntry(gauges, name);
    if (it == gauges.end())
        return std::nullopt;
    return it->second;
}

const Snapshot::LogHistogramData *
Snapshot::logHistogram(const std::string &name) const
{
    auto it = findEntry(logHistograms, name);
    return it == logHistograms.end() ? nullptr : &it->second;
}

void
Snapshot::merge(const Snapshot &other)
{
    for (const auto &[name, v] : other.counters)
        setCounter(name, counterValue(name) + v);
    for (const auto &[name, v] : other.gauges) {
        auto mine = gaugeValue(name);
        setGauge(name, mine ? *mine + v : v);
    }
    for (const auto &[name, h] : other.logHistograms) {
        auto it = findEntry(logHistograms, name);
        if (it == logHistograms.end()) {
            setLogHistogram(name, h);
            continue;
        }
        LogHistogramData &mine = it->second;
        if (mine.buckets.size() < h.buckets.size())
            mine.buckets.resize(h.buckets.size(), 0);
        for (std::size_t i = 0; i < h.buckets.size(); ++i)
            mine.buckets[i] += h.buckets[i];
        mine.invalid += h.invalid;
        mine.sum += h.sum;
    }
}

Snapshot
Snapshot::delta(const Snapshot &earlier) const
{
    // A metric that shrank between the snapshots (registry reset, a
    // service replaced) reports its current value: sub() clamps.
    auto sub = [](std::uint64_t cur, std::uint64_t prev) {
        return cur >= prev ? cur - prev : cur;
    };
    Snapshot out;
    for (const auto &[name, v] : counters)
        out.setCounter(name, sub(v, earlier.counterValue(name)));
    for (const auto &[name, v] : gauges)
        out.setGauge(name, v);
    for (const auto &[name, h] : logHistograms) {
        const LogHistogramData *prev = earlier.logHistogram(name);
        if (!prev || prev->buckets.size() > h.buckets.size()) {
            out.setLogHistogram(name, h);
            continue;
        }
        LogHistogramData d = h;
        for (std::size_t i = 0; i < prev->buckets.size(); ++i)
            d.buckets[i] = sub(d.buckets[i], prev->buckets[i]);
        d.invalid = sub(d.invalid, prev->invalid);
        d.sum = h.sum >= prev->sum ? h.sum - prev->sum : h.sum;
        out.setLogHistogram(name, std::move(d));
    }
    return out;
}

std::string
Snapshot::renderText(const std::string &prefix) const
{
    std::ostringstream os;
    for (const auto &[name, v] : counters)
        os << prefix << name << " = " << v << "\n";
    for (const auto &[name, v] : gauges)
        os << prefix << name << " = " << formatDouble(v) << "\n";
    for (const auto &[name, h] : logHistograms) {
        os << prefix << name << " = samples:" << h.samples()
           << " mean:" << formatDouble(h.mean())
           << " p50:" << formatDouble(h.quantile(0.50))
           << " p90:" << formatDouble(h.quantile(0.90))
           << " p99:" << formatDouble(h.quantile(0.99))
           << " p999:" << formatDouble(h.quantile(0.999))
           << " invalid:" << h.invalid << "\n";
    }
    return os.str();
}

std::string
Snapshot::renderTable(const std::string &title) const
{
    Table t(title);
    t.setHeader({"metric", "kind", "value"});
    for (const auto &[name, v] : counters)
        t.addRow({name, "counter", std::to_string(v)});
    for (const auto &[name, v] : gauges)
        t.addRow({name, "gauge", formatDouble(v)});
    for (const auto &[name, h] : logHistograms) {
        std::ostringstream cell;
        cell << "n=" << h.samples()
             << " p50=" << formatDouble(h.quantile(0.50))
             << " p90=" << formatDouble(h.quantile(0.90))
             << " p99=" << formatDouble(h.quantile(0.99))
             << " p999=" << formatDouble(h.quantile(0.999))
             << " invalid=" << h.invalid;
        t.addRow({name, "loghist", cell.str()});
    }
    return t.toString();
}

std::string
Snapshot::renderPrometheus() const
{
    std::ostringstream os;
    for (const auto &[name, v] : counters) {
        std::string p = promName(name);
        os << "# TYPE " << p << " counter\n" << p << " " << v << "\n";
    }
    for (const auto &[name, v] : gauges) {
        std::string p = promName(name);
        os << "# TYPE " << p << " gauge\n"
           << p << " " << formatDouble(v) << "\n";
    }
    for (const auto &[name, h] : logHistograms) {
        std::string p = promName(name);
        os << "# TYPE " << p << " summary\n";
        for (double q : {0.5, 0.9, 0.99, 0.999}) {
            os << p << "{quantile=\"" << formatDouble(q) << "\"} "
               << formatDouble(h.quantile(q)) << "\n";
        }
        os << p << "_sum " << formatDouble(h.sum) << "\n";
        os << p << "_count " << h.samples() << "\n";
        os << "# TYPE " << p << "_edge counter\n";
        os << p << "_edge{kind=\"invalid\"} " << h.invalid << "\n";
    }
    return os.str();
}

std::string
Snapshot::toJson() const
{
    std::ostringstream os;
    os << "{\"counters\":{";
    for (std::size_t i = 0; i < counters.size(); ++i) {
        if (i)
            os << ",";
        os << jsonQuote(counters[i].first) << ":" << counters[i].second;
    }
    os << "},\"gauges\":{";
    for (std::size_t i = 0; i < gauges.size(); ++i) {
        if (i)
            os << ",";
        os << jsonQuote(gauges[i].first) << ":"
           << formatDouble(gauges[i].second);
    }
    os << "},\"loghistograms\":{";
    for (std::size_t i = 0; i < logHistograms.size(); ++i) {
        if (i)
            os << ",";
        const auto &[name, h] = logHistograms[i];
        os << jsonQuote(name) << ":{\"buckets\":[";
        for (std::size_t b = 0; b < h.buckets.size(); ++b) {
            if (b)
                os << ",";
            os << h.buckets[b];
        }
        os << "],\"invalid\":" << h.invalid
           << ",\"sum\":" << formatDouble(h.sum) << "}";
    }
    os << "}}";
    return os.str();
}

std::optional<Snapshot>
Snapshot::fromJson(const std::string &text)
{
    auto root = jsonParse(text);
    if (!root || !root->isObject())
        return std::nullopt;

    Snapshot snap;
    if (const JsonValue *cs = root->member("counters")) {
        if (!cs->isObject())
            return std::nullopt;
        for (const auto &[name, v] : cs->objectMembers()) {
            if (!v.isNumber())
                return std::nullopt;
            snap.setCounter(name,
                            static_cast<std::uint64_t>(v.asNumber()));
        }
    }
    if (const JsonValue *gs = root->member("gauges")) {
        if (!gs->isObject())
            return std::nullopt;
        for (const auto &[name, v] : gs->objectMembers()) {
            if (!v.isNumber())
                return std::nullopt;
            snap.setGauge(name, v.asNumber());
        }
    }
    if (const JsonValue *ls = root->member("loghistograms")) {
        if (!ls->isObject())
            return std::nullopt;
        for (const auto &[name, v] : ls->objectMembers()) {
            if (!v.isObject())
                return std::nullopt;
            // Older dumps also carry a "subbits" field; the
            // resolution is fixed now, so it is ignored.
            const JsonValue *buckets = v.member("buckets");
            const JsonValue *invalid = v.member("invalid");
            const JsonValue *sum = v.member("sum");
            if (!buckets || !invalid || !sum || !buckets->isArray() ||
                !invalid->isNumber() || !sum->isNumber()) {
                return std::nullopt;
            }
            LogHistogramData h;
            for (const JsonValue &b : buckets->arrayItems()) {
                if (!b.isNumber())
                    return std::nullopt;
                h.buckets.push_back(
                    static_cast<std::uint64_t>(b.asNumber()));
            }
            h.invalid = static_cast<std::uint64_t>(invalid->asNumber());
            h.sum = sum->asNumber();
            snap.setLogHistogram(name, std::move(h));
        }
    }
    return snap;
}

// --------------------------------------------------------------- Registry

Registry::Registry(std::size_t stripe_count)
    : stripes(std::bit_ceil(stripe_count))
{
}

Counter &
Registry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &c : counters)
        if (c->name() == name)
            return *c;
    counters.push_back(std::make_unique<Counter>(name, stripes));
    return *counters.back();
}

const Counter &
Registry::counter(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &c : counters)
        if (c->name() == name)
            return *c;
    spm_panic("telemetry: no counter named '", name, "'");
}

Gauge &
Registry::gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &g : gauges)
        if (g->name() == name)
            return *g;
    gauges.push_back(std::make_unique<Gauge>(name));
    return *gauges.back();
}

LogHistogram &
Registry::logHistogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &h : logHists)
        if (h->name() == name)
            return *h;
    logHists.push_back(std::make_unique<LogHistogram>(name, stripes));
    return *logHists.back();
}

const LogHistogram &
Registry::logHistogram(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mu);
    for (const auto &h : logHists)
        if (h->name() == name)
            return *h;
    spm_panic("telemetry: no log histogram named '", name, "'");
}

Snapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mu);
    Snapshot snap;
    for (const auto &c : counters)
        snap.setCounter(c->name(), c->value());
    for (const auto &g : gauges)
        snap.setGauge(g->name(), g->value());
    for (const auto &h : logHists) {
        Snapshot::LogHistogramData data;
        // Trim the dense tail: latencies cluster low, and the trimmed
        // vector is what merge/JSON carry around.
        std::size_t top = 0;
        for (std::size_t i = 0; i < LogHistogram::bucketCount; ++i) {
            std::uint64_t v = h->bucketValue(i);
            if (v) {
                if (data.buckets.size() <= i)
                    data.buckets.resize(i + 1, 0);
                data.buckets[i] = v;
                top = i + 1;
            }
        }
        data.buckets.resize(top);
        data.invalid = h->invalids();
        data.sum = h->sum();
        snap.setLogHistogram(h->name(), std::move(data));
    }
    return snap;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mu);
    for (auto &c : counters)
        c->reset();
    for (auto &g : gauges)
        g->set(0.0);
    for (auto &h : logHists)
        h->reset();
}

std::size_t
Registry::metricCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return counters.size() + gauges.size() + logHists.size();
}

} // namespace spm::telem
