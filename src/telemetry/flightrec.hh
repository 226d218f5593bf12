/**
 * @file
 * The degradation flight recorder.
 *
 * When the serving stack misbehaves — a watchdog trips, the
 * degradation ladder falls a rung, the conformance harness finds a
 * disagreement — the interesting history is the last handful of
 * chunks, not the aggregate counters. Each service shard (and the
 * process-wide FlightRecorder::global()) keeps a bounded ring of
 * recent structured events; trip() freezes that history into a
 * human-readable dump carrying each event's beat index, shard id,
 * error-taxonomy code, and — crucially — the triggering chunk's
 * replayable conformance case ID, so a post-mortem starts from
 * `conformance_fuzz replay <id>` instead of from a log grep.
 *
 * Recording events is always on (it is cheap and load-bearing for
 * post-mortems); only the per-beat span layer compiles away under
 * SPM_TELEM_OFF.
 */

#ifndef SPM_TELEMETRY_FLIGHTREC_HH
#define SPM_TELEMETRY_FLIGHTREC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "util/types.hh"

namespace spm::telem
{

/** What happened; mirrors the service error taxonomy where it can. */
enum class FlightKind : std::uint8_t
{
    ChunkCommit,        ///< a chunk of text was served and committed
    WatchdogTrip,       ///< beat budget exceeded
    CrossCheckMismatch, ///< fast rung disagreed with the reference
    LadderTransition,   ///< degradation ladder changed rungs
    ConformanceFailure, ///< differential harness found a disagreement
    ShardFailover,      ///< a shard slice was retried on a spare slot
    OverlapMismatch,    ///< neighbor shards disagreed on the k-1 overlap
    Quarantine,         ///< a shard slot's circuit breaker opened
    Note,               ///< free-form marker
};

/** Render the kind as a stable short token ("watchdog_trip", ...). */
const char *flightKindName(FlightKind kind);

/** One structured event in the ring. */
struct FlightEvent
{
    FlightKind kind = FlightKind::Note;
    std::uint64_t seq = 0; ///< per-recorder sequence number
    Beat beat = 0;         ///< engine beat when recorded
    std::uint32_t shard = 0;
    std::uint64_t requestId = 0;
    std::uint64_t offset = 0;  ///< chunk offset in the stream
    std::string code;          ///< error-taxonomy code token
    std::string caseId;        ///< replayable conformance case ID
    std::string note;          ///< free-form detail

    /** "watchdog_trip beat=… shard=… case=…" one-liner. */
    std::string render() const;
};

/**
 * A bounded ring of recent FlightEvents. record() is mutex-guarded
 * (events are rare relative to beats: one per chunk at most), trip()
 * renders the current history plus the triggering event into a dump
 * string, hands it to the configured sink (spm_warn by default) and
 * remembers it for tests/tools via lastDump().
 */
class FlightRecorder
{
  public:
    explicit FlightRecorder(std::size_t event_capacity = 64);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Process-wide recorder (conformance harness, tools). */
    static FlightRecorder &global();

    /** Append one event; oldest events fall off the ring. */
    void record(FlightEvent ev);

    /**
     * Record @p ev and dump: the ring history (oldest first), then
     * the triggering event, rendered under a "=== flight dump" header
     * naming @p reason. The dump goes to the sink and lastDump().
     */
    std::string trip(const std::string &reason, FlightEvent ev);

    /** The most recent trip() dump; empty until the first trip. */
    std::string lastDump() const;

    /** Number of trips so far. */
    std::uint64_t tripCount() const;

    /** Recent events, oldest first. */
    std::vector<FlightEvent> events() const;

    /** Total events ever recorded (ring may have dropped some). */
    std::uint64_t recordedTotal() const;

    /**
     * Replace the dump sink (default: spm_warn). Tests install a
     * capturing sink; pass nullptr to restore the default.
     */
    void setDumpSink(std::function<void(const std::string &)> sink);

    std::size_t capacity() const { return cap; }

    /** Forget history and dumps (not the trip/recorded totals). */
    void clear();

  private:
    const std::size_t cap;
    mutable std::mutex mu;
    std::deque<FlightEvent> ring;
    std::uint64_t nextSeq = 0;
    std::uint64_t trips = 0;
    std::string last;
    std::function<void(const std::string &)> dumpSink;
};

/**
 * The replayable conformance case ID for a literal pattern/text pair
 * ("l1:<bits>:<pattern>:<text>"). It lives here, below the services
 * this module instruments; conformance::encodeLiteral delegates to it,
 * so there is one encoder.
 */
std::string literalCaseId(BitWidth bits,
                          const std::vector<Symbol> &pattern,
                          const std::vector<Symbol> &text);

} // namespace spm::telem

#endif // SPM_TELEMETRY_FLIGHTREC_HH
