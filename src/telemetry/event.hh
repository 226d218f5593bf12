/**
 * @file
 * The event module: one record for "what happened to request r".
 *
 * A service's replay journal, every FlightRecorder and the
 * ExemplarReservoir store EventRecords, rendered to lines only when a
 * dump asks. StageClock splits one request's latency into stages;
 * RequestObserver folds finished clocks into "req.*" LogHistograms
 * and offers each request to an ExemplarReservoir.
 */

#ifndef SPM_TELEMETRY_EVENT_HH
#define SPM_TELEMETRY_EVENT_HH

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "util/types.hh"

namespace spm::telem
{

/**
 * Cases of at most this many symbols (pattern plus text) keep their
 * symbols and render as a replayable "l1:" literal.
 */
inline constexpr std::size_t caseLiteralCap = 1024;

/**
 * A reference to a conformance case: request id, alphabet width,
 * pattern and text lengths and the window's offset in its request,
 * plus the symbols within caseLiteralCap, which make it replayable
 * (`conformance_fuzz --replay <id>`). Past the cap it reads no symbol,
 * so building one costs O(1); the journal's ckpt= digests for the same
 * request identify what was served. Copies share one immutable body; a
 * default-constructed ref names no case.
 */
class CaseRef
{
  public:
    CaseRef() = default;
    CaseRef(std::uint64_t request_id, BitWidth bits,
            std::span<const Symbol> pattern, std::span<const Symbol> text,
            std::uint64_t offset = 0);

    explicit operator bool() const { return body != nullptr; }

    /**
     * "l1:<bits>:<pattern>:<text>" within the cap, else
     * "ref:<req>:<bits>:<k>:<n>:<offset>"; "" for no case.
     */
    std::string render() const;

  private:
    struct Body;
    std::shared_ptr<const Body> body;
};

/** What a record says happened. */
enum class EventKind : std::uint8_t
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
    // Journal only.
    Start,  ///< a request began streaming
    Resume, ///< a request resumed from a checkpoint
    Skip,   ///< a rung does not support the pattern
    Cancel, ///< a rung failed or tripped on a window
    Done,   ///< a request finished
    Fail,   ///< a request failed with a typed error
    Reject, ///< a submit() failed validation
    Shed,   ///< a queued request was evicted under shed-oldest
};

/** The kind's stable token ("watchdog_trip", "start", ...). */
const char *eventKindName(EventKind kind);

/**
 * One event; unused fields stay zero. Rungs are ladder indices, named
 * when a line is rendered; @c code points at static storage. Free
 * text (exception messages, validation errors) lives out of line in
 * @c detail, so recording a committed chunk allocates nothing.
 */
struct EventRecord
{
    EventKind kind = EventKind::Note;
    std::uint32_t shard = 0;
    std::uint32_t rung = 0;
    std::uint64_t seq = 0; ///< stamped by the recorder
    std::uint64_t requestId = 0;
    std::uint64_t offset = 0; ///< text offset (committed, or a slice's)
    std::uint64_t length = 0; ///< text length (request, or a slice's)
    Beat beats = 0;
    std::uint64_t digest = 0; ///< checkpoint digest
    std::uint64_t count = 0;  ///< pattern length; faults so far
    std::uint64_t limit = 0;  ///< beat budget; fault budget
    const char *code = nullptr;
    CaseRef caseRef{};
    std::shared_ptr<const std::string> detail{};

    void setDetail(std::string text);
};

/** Constructor tag for a service's replay journal. */
struct JournalTag
{
};

/** A journal's ring depth: at 120 B a record, about 480 KB. */
inline constexpr std::size_t journalCapacity = 4096;

/**
 * A bounded ring of recent EventRecords, reserved on the first record
 * and overwritten in place once full. A flight recorder renders
 * "#<seq> <kind> beat=..." lines. A service's replay journal holds
 * journalCapacity records, renders "seq=<n> req=<id> <event>" lines
 * and restarts its numbering on clear(). record() is mutex-guarded;
 * trip() renders the history plus the triggering record into a dump
 * for the sink (spm_warn by default) and lastDump(), and with tracing
 * and sampling on records a trace instant named for the record's kind.
 */
class FlightRecorder
{
  public:
    /** @param event_capacity ring depth; 0 is read as 1 */
    explicit FlightRecorder(std::size_t event_capacity = 64);
    /** A replay journal of journalCapacity records. */
    explicit FlightRecorder(JournalTag);

    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Process-wide recorder (conformance harness, tools). */
    static FlightRecorder &global();

    /** Name the records' ladder rungs; set before sharing the ring. */
    void setRungNames(std::vector<std::string> names);

    /** Stamp @p ev with the next sequence number and append it. */
    void record(EventRecord ev);

    /**
     * Record @p ev and dump the history (oldest first), then @p ev,
     * under a "=== flight dump" header naming @p reason.
     */
    std::string trip(const std::string &reason, EventRecord ev);

    /** @p ev's line in this recorder's format. */
    std::string render(const EventRecord &ev) const;

    std::string lastDump() const; ///< empty until the first trip
    std::uint64_t tripCount() const;

    /** Held events, oldest first, and their lines. */
    std::vector<EventRecord> events() const;
    std::size_t size() const;
    std::string dump() const;

    /** Events recorded since construction (a journal: since clear()). */
    std::uint64_t recordedTotal() const;
    /** recordedTotal() minus size(): a journal's records that fell off. */
    std::uint64_t dropped() const;

    /** Replace the dump sink; nullptr restores spm_warn. */
    void setDumpSink(std::function<void(const std::string &)> sink);

    /** Forget history and dumps (not the trip count). */
    void clear();

  private:
    /** Append under the lock; the oldest event falls off when full. */
    void push(EventRecord &&ev);
    /** The held events' lines, each after @p indent (under the lock). */
    std::string lines(const char *indent) const;

    const std::size_t cap;
    const bool journal = false; ///< journal lines; clear() renumbers
    std::vector<std::string> rungNames;
    mutable std::mutex mu;
    std::vector<EventRecord> ring; ///< circular once full
    std::size_t oldest = 0;        ///< index of the oldest when full
    std::uint64_t nextSeq = 0;
    std::uint64_t trips = 0;
    std::string last;
    std::function<void(const std::string &)> dumpSink;
};

/**
 * The replayable conformance case ID for a literal pattern/text pair
 * ("l1:<bits>:<pattern>:<text>"), at any size. conformance::
 * encodeLiteral delegates to it, so there is one encoder.
 */
std::string literalCaseId(BitWidth bits,
                          std::span<const Symbol> pattern,
                          std::span<const Symbol> text);

/** The stages one request's latency decomposes into. */
enum class Stage : unsigned char
{
    Admit,      ///< validation, session setup, window assembly
    QueueWait,  ///< admission / shard queue residency
    Kernel,     ///< the matcher itself (any rung of the ladder)
    CrossCheck, ///< reference / overlap verification
    Journal,    ///< replay-journal recording
    Commit,     ///< bus transfer, result emission, checkpoint
};

inline constexpr std::size_t stageCount = 6;

/** Stable lowercase token ("queue_wait") for names and renders. */
const char *stageName(Stage s);

/**
 * The stage clock's tick: the x86-64 time-stamp counter, which reads
 * in ~9 ns against ~22 ns for the steady clock (4-core EPYC VM), and
 * nowNs() elsewhere. Ticks are compared, and scaled to nanoseconds,
 * only within one request.
 */
inline std::uint64_t
stageTick()
{
#if defined(__x86_64__)
    return __builtin_ia32_rdtsc();
#else
    return nowNs();
#endif
}

/**
 * Per-request stage attribution. start() arms the clock (capturing
 * the runtime sampling gate once), mark(s) credits the ticks since the
 * previous mark to stage @p s, note(s, ns) credits externally
 * measured time (queue waits timed by an enqueue stamp), addBeats
 * accumulates the simulated-chip cost. A mark is one tick read, cheap
 * enough for every chunk of a microsecond serve; read() converts at
 * the request's own nanoseconds per tick (its steady-clock span over
 * its tick span), so the marked stages sum to at most the total.
 * Everything is a no-op when sampling was disabled at start().
 *
 * The clock is also the trace's one source of spans: when the global
 * TraceBuffer was enabled at start() too, each mark records a Chrome
 * 'X' span named stageName(s), from the previous mark to now, stamped
 * with the beats so far and the id start() was given.
 */
class StageClock
{
  public:
    /** Wall nanoseconds since start() and each stage's share. */
    struct Reading
    {
        std::uint64_t totalNs = 0;
        std::array<std::uint64_t, stageCount> stageNs{};
    };

    /** @param trace_id the request (or call) id its spans carry */
    void start(std::uint64_t trace_id = 0)
    {
        armed = samplingEnabled();
        traced = armed && TraceBuffer::global().enabled();
        if (!armed)
            return;
        t0 = nowNs();
        tick0 = lastTick = stageTick();
        traceId = trace_id;
        // The first span starts at t0: no second clock read.
        if (traced)
            lastUs = TraceBuffer::global().usAt(t0);
    }

    void mark(Stage s)
    {
        if (!armed)
            return;
        // A tick behind the last one (a migration across unsynchronized
        // counters) credits nothing rather than wrapping.
        const std::uint64_t t = stageTick();
        const std::uint64_t now = t > lastTick ? t : lastTick;
        ticks[static_cast<std::size_t>(s)] += now - lastTick;
        lastTick = now;
        if (traced)
            markSpan(s);
    }

    /** Credit externally measured time without moving the mark. */
    void note(Stage s, std::uint64_t duration_ns)
    {
        if (armed)
            notedNs[static_cast<std::size_t>(s)] += duration_ns;
    }

    void addBeats(Beat b)
    {
        if (armed)
            beatCount += b;
    }

    bool running() const { return armed; }
    /** The split so far (all zero when disarmed); live until observed. */
    Reading read() const;
    Beat beats() const { return beatCount; }

  private:
    /** mark()'s traced half: record the span that mark closes. */
    void markSpan(Stage s);

    bool armed = false;
    bool traced = false;
    std::uint64_t traceId = 0;
    std::uint64_t lastUs = 0; ///< trace time of the previous mark
    std::uint64_t t0 = 0;
    std::uint64_t tick0 = 0;
    std::uint64_t lastTick = 0;
    std::array<std::uint64_t, stageCount> ticks{};
    std::array<std::uint64_t, stageCount> notedNs{};
    Beat beatCount = 0;
};

/** One retained request trace: its record plus the stage split. */
struct Exemplar
{
    /** Kind Done: request id, beats, observation seq, case ref. */
    EventRecord event{.kind = EventKind::Done};
    const char *service = "";     ///< observer label ("stream", ...)
    const char *reason = nullptr; ///< why it was force-retained
    bool forced = false;
    std::uint64_t latencyNs = 0;
    std::array<std::uint64_t, stageCount> stageNs{};

    /** Multi-line human rendering (stage split + case ref). */
    std::string render() const;
};

/**
 * Bounded tail-sampling reservoir. Three retention classes:
 *
 *   slowest   the N largest latencies seen (min-replacement);
 *   uniform   a classic reservoir sample of all observations, so the
 *             body of the distribution is represented too (the draw
 *             is a deterministic hash of (seed, seq): two runs over
 *             the same request stream retain the same exemplars);
 *   forced    a ring of the most recent force-retained requests --
 *             watchdog trips and ladder falls never compete with
 *             ordinary slow requests for space.
 *
 * The case-ref builder passed to offer() runs only when some class
 * retains the request, so the common path builds nothing.
 */
class ExemplarReservoir
{
  public:
    explicit ExemplarReservoir(std::size_t slowest_capacity = 8,
                               std::size_t uniform_capacity = 8,
                               std::size_t forced_capacity = 8,
                               std::uint64_t seed = 0x5eed);

    /** Consider one finished request; thread-safe. */
    void offer(Exemplar &&e, const std::function<CaseRef()> &case_fn);

    std::vector<Exemplar> slowest() const;  ///< sorted, slowest first
    std::vector<Exemplar> uniform() const;
    std::vector<Exemplar> forced() const;   ///< oldest first

    std::uint64_t offered() const;
    std::uint64_t retained() const;

    /** All three classes rendered for a dashboard / dump. */
    std::string renderText() const;

  private:
    mutable std::mutex mu;
    std::size_t slowCap, uniCap, forceCap;
    std::uint64_t seed;
    std::uint64_t seq = 0;
    std::uint64_t retainedCount = 0;
    std::vector<Exemplar> slow;
    std::vector<Exemplar> uni;
    std::deque<Exemplar> force;
};

/**
 * The per-service fold: binds the request-level LogHistograms in one
 * registry and feeds them (and an optional reservoir) from finished
 * StageClocks. One observer per service front end; the sharded
 * service's lives on its supervision registry so its metrics render
 * under the "sharded." prefix its snapshot already applies.
 */
class RequestObserver
{
  public:
    /**
     * @param reg registry the req.* histograms register in
     * @param service_label stamped on exemplars ("stream", "batch"...);
     *        a string literal
     * @param reservoir exemplar sink; may be nullptr (histograms only)
     */
    RequestObserver(Registry &reg, const char *service_label,
                    ExemplarReservoir *reservoir);

    /**
     * Fold one finished request. @p case_fn builds its case reference
     * lazily (see ExemplarReservoir). @p force retains the trace
     * regardless of latency; @p force_reason says why ("watchdog
     * trip", "ladder fall", ...).
     */
    void observe(const StageClock &clock, std::uint64_t request_id,
                 bool force, const char *force_reason,
                 const std::function<CaseRef()> &case_fn);

    /**
     * Extra queue-wait samples that don't ride a full StageClock: the
     * batch front end serves many queued requests in one pass, so
     * each member's wait feeds the stage histogram directly.
     */
    void noteQueueWait(std::uint64_t wait_ns);

  private:
    const char *serviceLabel;
    ExemplarReservoir *reservoir;
    LogHistogram &latencyNsHist;
    LogHistogram &latencyBeatsHist;
    std::array<LogHistogram *, stageCount> stageHists{};
};

} // namespace spm::telem

#endif // SPM_TELEMETRY_EVENT_HH
