#include "telemetry/span.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "telemetry/jsonlite.hh"

namespace spm::telem
{

/**
 * Per-thread event ring. Only the owning thread writes slots and
 * head; the exporter reads them at quiescence under the collect()
 * contract, so plain (relaxed-published) accesses suffice and the
 * hot path stays wait-free.
 */
struct TraceBuffer::Ring
{
    explicit Ring(std::size_t cap, std::uint32_t tid_value)
        : tid(tid_value), slots(cap)
    {
    }

    std::uint32_t tid;
    std::uint64_t head = 0; ///< total events ever written
    std::vector<SpanEvent> slots;
};

namespace
{

/** Cache entry resolving (buffer id) -> ring without the lock. */
struct RingCacheEntry
{
    std::uint64_t bufferId;
    TraceBuffer::Ring *ring;
};

std::uint64_t
nextBufferId()
{
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

} // namespace

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

TraceBuffer::TraceBuffer(std::size_t capacity_per_thread)
    : capacity(std::max<std::size_t>(capacity_per_thread, 8)),
      bufferId(nextBufferId()), epochNs(nowNs())
{
}

TraceBuffer::~TraceBuffer() = default;

TraceBuffer &
TraceBuffer::global()
{
    // Leaked: instrumented code may record during static destruction.
    static TraceBuffer *g = new TraceBuffer(8192);
    return *g;
}

TraceBuffer::Ring &
TraceBuffer::threadRing()
{
    // Buffer ids increase monotonically and are never reused, so a
    // stale cache entry for a destroyed buffer can never falsely
    // match a live one.
    thread_local std::vector<RingCacheEntry> cache;
    for (const RingCacheEntry &e : cache)
        if (e.bufferId == bufferId)
            return *e.ring;

    std::lock_guard<std::mutex> lock(ringsMu);
    auto ring = std::make_unique<Ring>(
        capacity, static_cast<std::uint32_t>(rings.size()));
    Ring *raw = ring.get();
    rings.push_back(std::move(ring));
    cache.push_back({bufferId, raw});
    return *raw;
}

void
TraceBuffer::record(const SpanEvent &ev)
{
    Ring &ring = threadRing();
    SpanEvent &slot = ring.slots[ring.head % capacity];
    slot = ev;
    slot.tid = ring.tid;
    ++ring.head;
}

std::uint64_t
TraceBuffer::nowUs() const
{
    return usAt(nowNs());
}

std::vector<SpanEvent>
TraceBuffer::collect() const
{
    std::vector<SpanEvent> events;
    std::lock_guard<std::mutex> lock(ringsMu);
    for (const auto &ring : rings) {
        std::uint64_t n = std::min<std::uint64_t>(ring->head, capacity);
        std::uint64_t first = ring->head - n;
        for (std::uint64_t i = 0; i < n; ++i)
            events.push_back(ring->slots[(first + i) % capacity]);
    }
    std::stable_sort(events.begin(), events.end(),
                     [](const SpanEvent &a, const SpanEvent &b) {
                         return a.startUs < b.startUs;
                     });
    return events;
}

std::string
TraceBuffer::exportChromeJson(const std::string &processName) const
{
    std::vector<SpanEvent> events = collect();
    std::ostringstream os;
    os << "[";
    // Metadata event names the process in the Perfetto track list.
    os << "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"ts\":0,"
          "\"name\":\"process_name\",\"args\":{\"name\":"
       << jsonQuote(processName) << "}}";
    for (const SpanEvent &ev : events) {
        const bool span = ev.phase == SpanEvent::Phase::Complete;
        os << ",{\"ph\":\"" << (span ? "X" : "I")
           << "\",\"pid\":1,\"tid\":" << ev.tid
           << ",\"ts\":" << ev.startUs;
        if (span)
            os << ",\"dur\":" << ev.durUs << ",\"cat\":\"stage\"";
        else
            os << ",\"s\":\"t\",\"cat\":\"trip\"";
        os << ",\"name\":" << jsonQuote(ev.name)
           << ",\"args\":{\"beat\":" << ev.beat << ",\"arg\":" << ev.arg
           << "}}";
    }
    os << "]";
    return os.str();
}

void
TraceBuffer::clear()
{
    std::lock_guard<std::mutex> lock(ringsMu);
    for (auto &ring : rings)
        ring->head = 0;
}

std::uint64_t
TraceBuffer::recordedTotal() const
{
    std::lock_guard<std::mutex> lock(ringsMu);
    std::uint64_t total = 0;
    for (const auto &ring : rings)
        total += ring->head;
    return total;
}

std::uint64_t
TraceBuffer::droppedTotal() const
{
    std::lock_guard<std::mutex> lock(ringsMu);
    std::uint64_t dropped = 0;
    for (const auto &ring : rings)
        if (ring->head > capacity)
            dropped += ring->head - capacity;
    return dropped;
}

std::string
validateChromeTrace(const std::string &json)
{
    auto root = jsonParse(json);
    if (!root)
        return "not valid JSON";
    if (!root->isArray())
        return "root is not an array";
    if (root->arrayItems().empty())
        return "event array is empty";
    std::size_t i = 0;
    for (const JsonValue &ev : root->arrayItems()) {
        std::string where = "event " + std::to_string(i++);
        if (!ev.isObject())
            return where + " is not an object";
        const JsonValue *ph = ev.member("ph");
        if (!ph || !ph->isString() || ph->asString().empty())
            return where + " lacks a string 'ph'";
        const JsonValue *ts = ev.member("ts");
        if (!ts || !ts->isNumber())
            return where + " lacks a numeric 'ts'";
        const JsonValue *pid = ev.member("pid");
        if (!pid || !pid->isNumber())
            return where + " lacks a numeric 'pid'";
        const JsonValue *tid = ev.member("tid");
        if (!tid || !tid->isNumber())
            return where + " lacks a numeric 'tid'";
        const JsonValue *name = ev.member("name");
        if (!name || !name->isString())
            return where + " lacks a string 'name'";
        if (ph->asString() == "X") {
            const JsonValue *dur = ev.member("dur");
            if (!dur || !dur->isNumber())
                return where + " is 'X' but lacks a numeric 'dur'";
        }
    }
    return "";
}

} // namespace spm::telem
