/**
 * @file
 * Beat-stamped span tracing with Chrome trace-event export.
 *
 * The systolic design's central property is per-beat predictability;
 * spans make that visible on a timeline. There are two sources, and
 * only two: every StageClock mark of a traced request is one Chrome
 * 'X' complete event named for its stage (admit, kernel, commit...),
 * and every FlightRecorder::trip() is one 'I' instant named for its
 * event kind (watchdog_trip, ladder_transition...). Both carry the
 * simulated beat count and the request id alongside the wall-clock
 * timestamp, so a Perfetto timeline reads in either time base.
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

/** Monotonic (steady-clock) nanoseconds: request latency, trace time. */
std::uint64_t nowNs();

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
    std::uint64_t arg = 0;     ///< request or call id
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

    /** The process-wide buffer stage marks and trips record into. */
    static TraceBuffer &global();

    void setEnabled(bool on) { on_.store(on, std::memory_order_relaxed); }
    bool enabled() const { return on_.load(std::memory_order_relaxed); }

    /** Record one event (hot path; no locks once a ring exists). */
    void record(const SpanEvent &ev);

    /** µs since this buffer's construction; the trace time base. */
    std::uint64_t nowUs() const;
    /** A nowNs() reading from after construction, in trace µs. */
    std::uint64_t usAt(std::uint64_t ns) const { return (ns - epochNs) / 1000; }

    /**
     * Events recorded so far, oldest lost to wraparound. Requires
     * quiescence: no concurrent record() calls, and a happens-before
     * edge from every recording thread. Sorted by start time.
     */
    std::vector<SpanEvent> collect() const;

    /**
     * Chrome trace-event JSON: an array of objects with ph/ts/pid/
     * tid/name/cat fields, loadable in chrome://tracing / Perfetto;
     * cat is "stage" on spans and "trip" on instants. Same quiescence
     * contract as collect().
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
    const std::uint64_t epochNs;

    mutable std::mutex ringsMu; ///< guards the rings list only
    std::vector<std::unique_ptr<Ring>> rings;
};

/**
 * Validate Chrome trace-event JSON structure: a non-empty array whose
 * entries all carry ph/ts/pid/tid/name. Returns an empty string when
 * valid, else a description of the first violation.
 */
std::string validateChromeTrace(const std::string &json);

} // namespace spm::telem

#endif // SPM_TELEMETRY_SPAN_HH
