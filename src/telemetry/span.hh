/**
 * @file
 * Beat-stamped span tracing with Chrome trace-event export.
 *
 * The systolic design's central property is per-beat predictability;
 * spans make that visible on a timeline. A ScopedSpan brackets a
 * region of work (a served chunk, a conformance case, a batch of
 * shards) as one Chrome 'X' complete event; instant() drops an 'I'
 * marker (a watchdog trip, a ladder fall). Both carry the simulated
 * beat index alongside the wall-clock timestamp, so a Perfetto
 * timeline can be read in either time base.
 *
 * Recording is lock-free on the hot path: each thread appends to its
 * own fixed-capacity ring with plain stores. The contract is the
 * classic collect-at-quiescence one — exportChromeJson()/clear() may
 * only run when no thread is concurrently recording, with a
 * happens-before edge between the writers and the exporter (the
 * sharded service's batch join provides exactly that). Rings wrap:
 * the buffer always holds the most recent events per thread.
 */

#ifndef SPM_TELEMETRY_SPAN_HH
#define SPM_TELEMETRY_SPAN_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.hh"

namespace spm::telem
{

/** Trace categories, one bit each; every event carries its own. */
namespace cat
{
constexpr std::uint32_t engine = 1u << 0;      ///< beat-loop internals
constexpr std::uint32_t gate = 1u << 1;        ///< gate-level settle
constexpr std::uint32_t service = 1u << 2;     ///< chunk serving
constexpr std::uint32_t sharded = 1u << 3;     ///< thread-pool batches
constexpr std::uint32_t hostbus = 1u << 4;     ///< host transfers
constexpr std::uint32_t conformance = 1u << 5; ///< differential cases

/** Render "service,sharded"-style lists; unknown bits are dropped. */
std::string names(std::uint32_t mask);
} // namespace cat

/** One recorded event; fixed-size, name by pointer to a literal. */
struct SpanEvent
{
    enum class Phase : std::uint8_t
    {
        Complete, ///< 'X': begin + duration
        Instant,  ///< 'I': a point in time
    };

    const char *name = "";     ///< static-storage string only
    std::uint64_t startUs = 0; ///< wall-clock µs since buffer epoch
    std::uint64_t durUs = 0;   ///< Complete only
    Beat beat = 0;             ///< simulated beat stamp
    std::uint64_t arg = 0;     ///< one free payload (chunk id, code)
    std::uint32_t category = 0;
    std::uint32_t tid = 0; ///< recording thread, dense ids from 0
    Phase phase = Phase::Complete;
};

/**
 * A bounded multi-thread trace sink. Each recording thread gets a
 * private ring of `capacityPerThread` slots on first use; recording
 * is wait-free (plain stores into the ring). Enable/disable is a
 * runtime switch so the same binary can measure its own tracing
 * overhead.
 */
class TraceBuffer
{
  public:
    explicit TraceBuffer(std::size_t capacity_per_thread = 4096);
    ~TraceBuffer();

    TraceBuffer(const TraceBuffer &) = delete;
    TraceBuffer &operator=(const TraceBuffer &) = delete;

    /** The process-wide buffer the SPM_TSPAN macros record into. */
    static TraceBuffer &global();

    void setEnabled(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return on_.load(std::memory_order_relaxed); }

    /** Record one event (hot path; no locks once a ring exists). */
    void record(const SpanEvent &ev);

    /** µs since this buffer's construction; the trace time base. */
    std::uint64_t nowUs() const;

    /**
     * Events recorded so far, oldest lost to wraparound. Requires
     * quiescence: no concurrent record() calls, and a happens-before
     * edge from every recording thread. Sorted by start time.
     */
    std::vector<SpanEvent> collect() const;

    /**
     * Chrome trace-event JSON: an array of objects with ph/ts/pid/
     * tid/name/cat fields, loadable in chrome://tracing / Perfetto.
     * Same quiescence contract as collect().
     */
    std::string exportChromeJson(const std::string &processName =
                                     "spm") const;

    /**
     * Drop all recorded events; the recorded/dropped totals reset
     * with them (quiescence contract applies).
     */
    void clear();

    /** Total events recorded (including overwritten) since clear(). */
    std::uint64_t recordedTotal() const;
    /** Events lost to ring wraparound. */
    std::uint64_t droppedTotal() const;

    std::size_t ringCapacity() const { return capacity; }

    struct Ring; ///< per-thread ring; public for the cc-local cache

  private:

    Ring &threadRing();

    const std::size_t capacity;
    const std::uint64_t bufferId; ///< unique; keys thread-local cache
    std::atomic<bool> on_{false};
    std::uint64_t epochNs;

    mutable std::mutex ringsMu; ///< guards the rings list only
    std::vector<std::unique_ptr<Ring>> rings;
};

/**
 * Validate Chrome trace-event JSON structure: a non-empty array whose
 * entries all carry ph/ts/pid/tid/name. Returns an empty string when
 * valid, else a description of the first violation.
 */
std::string validateChromeTrace(const std::string &json);

/**
 * RAII recorder for one 'X' complete event. Times the enclosed scope
 * with the buffer clock; the beat stamp may be updated before exit so
 * the span carries the beat it ended on.
 */
class ScopedSpan
{
  public:
    /** @param span_name static-storage string literal only. */
    ScopedSpan(TraceBuffer &buffer, const char *span_name,
               std::uint32_t category, Beat beat_stamp = 0,
               std::uint64_t arg_value = 0)
        : buf(&buffer), name(span_name), category(category),
          beat(beat_stamp), arg(arg_value), live(buffer.enabled()),
          startUs(live ? buffer.nowUs() : 0)
    {
    }

    ~ScopedSpan()
    {
        if (live)
            finishNow();
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** Update the beat stamp the span will be recorded with. */
    void setBeat(Beat b) { beat = b; }

  private:
    void finishNow();

    TraceBuffer *buf;
    const char *name;
    std::uint32_t category;
    Beat beat;
    std::uint64_t arg;
    bool live;
    std::uint64_t startUs;
};

/** Record one 'I' instant event (no-op when filtered out). */
void instant(TraceBuffer &buffer, const char *name,
             std::uint32_t category, Beat beat = 0,
             std::uint64_t arg = 0);

} // namespace spm::telem

#endif // SPM_TELEMETRY_SPAN_HH
