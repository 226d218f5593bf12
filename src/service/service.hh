/**
 * @file
 * The resilient streaming match service.
 *
 * MatchService fronts the pattern-matching machine with the serving
 * discipline a host-attached peripheral needs (Section 3.1: the chip
 * runs "at a steady rate ... with a constant time between data
 * items"; the host, not the array, must absorb everything irregular):
 *
 *   admission    - a bounded queue with a configurable backpressure
 *                  policy (reject / shed-oldest / block);
 *   validation   - every request checked against a typed error
 *                  taxonomy before it touches hardware;
 *   streaming    - text fed in chunks over the HostBusModel pacing,
 *                  each chunk a window overlapping the last by k-1
 *                  characters;
 *   watchdog     - a beat budget per window; a wedged backend is
 *                  cancelled, not waited on;
 *   checkpoints  - resumable state cut after every committed chunk,
 *                  with a deterministic replay journal;
 *   degradation  - a ladder of backends (gate level -> behavioral ->
 *                  software baseline); a rung that trips the watchdog
 *                  or exceeds its cross-check fault budget is
 *                  abandoned for the rest of the request, and every
 *                  committed chunk is verified against the reference
 *                  matcher, so degraded results are never silently
 *                  wrong.
 */

#ifndef SPM_SERVICE_SERVICE_HH
#define SPM_SERVICE_SERVICE_HH

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/hostbus.hh"
#include "service/backend.hh"
#include "service/checkpoint.hh"
#include "service/queue.hh"
#include "service/request.hh"
#include "service/watchdog.hh"
#include "telemetry/event.hh"
#include "telemetry/metrics.hh"
#include "util/types.hh"

namespace spm::service
{

/** The admission bounds and host bus every front end shares. */
struct FrontEndConfig
{
    /** Bits per alphabet character; symbols must be < 2^bits. */
    BitWidth alphabetBits = 2;
    /** Largest admissible text (a dictionary stream's total), in chars. */
    std::size_t maxTextLen = 1 << 16;
    /** Largest admissible pattern. */
    std::size_t maxPatternLen = 64;
    /** Bus pacing and parity; parity on by default for the service. */
    core::HostBusModel bus{prototypeBeatPs, 8, true};
};

/** Serving-side configuration of the streaming service. */
struct ServiceConfig : FrontEndConfig
{
    /** Character cells per hardware chip. */
    std::size_t cells = 8;
    /** Text characters streamed per chunk. */
    std::size_t chunkChars = 32;
    /** Verify every committed chunk against the reference matcher. */
    bool crossCheck = true;
    /** Record the replay journal. */
    bool journalEnabled = true;
    /** Admission queue depth. */
    std::size_t queueCapacity = 8;
    BackpressurePolicy policy = BackpressurePolicy::Reject;
    /**
     * Shard slot this service occupies (0 when unsharded); stamped on
     * every flight-recorder event so a merged post-mortem attributes
     * each chunk to its worker.
     */
    std::uint32_t shardId = 0;
};

/**
 * What every serving front end shares: one metrics registry with a
 * "rejected" counter, the request observer and its exemplar
 * reservoir, and the stats surface built on them. A front end derives
 * from it and keeps only its execution code; everything a host reads
 * back about admission and observation is defined here, once.
 */
class FrontEnd
{
  public:
    /** Lifetime metrics: its own, "rejected" and the req.* histograms. */
    const telem::Registry &stats() const { return metrics; }

    /**
     * Tail-sampled exemplar traces: the slowest requests, a uniform
     * sample, and every request whose fault force-retained it, each
     * with its per-stage latency split and case reference.
     */
    const telem::ExemplarReservoir &exemplars() const
    {
        return exemplarStore;
    }
    telem::ExemplarReservoir &exemplars() { return exemplarStore; }

    /** The metrics as one snapshot (the registry's, by default). */
    virtual telem::Snapshot metricsSnapshot() const;

    /** metricsSnapshot() as "<prefix>x = n" lines, plus the bus's. */
    std::string statsDump() const;

  protected:
    /**
     * @param alphabet_bits the front end's alphabet (asserted here)
     * @param label exemplar label ("stream", "batch"...); a literal
     * @param dump_prefix statsDump()'s name prefix; a literal
     * @param stripes registry stripes (concurrent writers)
     */
    FrontEnd(BitWidth alphabet_bits, const char *label,
             const char *dump_prefix, std::size_t stripes = 1);
    ~FrontEnd() = default;

    /** A started clock, credited with the wait since @p enqueued_ns. */
    static telem::StageClock startClock(std::uint64_t enqueued_ns);

    /**
     * Fold one finished request into the observer; @p reason (or
     * nullptr) force-retains its trace, whose case is built from the
     * rest only if the reservoir keeps it.
     */
    void observe(const telem::StageClock &clock, std::uint64_t id,
                 const char *reason, BitWidth bits,
                 std::span<const Symbol> pattern,
                 std::span<const Symbol> text);

    /** Count one failed admission and hand its error back. */
    ServiceError reject(ServiceError err)
    {
        rejectedCtr.add();
        return err;
    }

    telem::Registry metrics;

  private:
    const char *prefix;
    telem::Counter &rejectedCtr;
    telem::ExemplarReservoir exemplarStore;

  protected:
    /** Declared after the reservoir it feeds. */
    telem::RequestObserver observer;
    /** The bus statsDump() reports; set by the front ends that own one. */
    const core::HostBusModel *bus = nullptr;
};

class MatchService;

/**
 * One streaming match in flight. step() processes one chunk and cuts
 * a checkpoint; a caller that stops stepping (a crash, a cancel) can
 * later resume a fresh session from the last checkpoint and the
 * output is bit-identical to an uninterrupted run.
 */
class StreamSession
{
  public:
    /** Process the next chunk. True while more chunks remain. */
    bool step();

    /** True once the request is fully served or has failed. */
    bool done() const { return finished; }

    /** The last durable checkpoint (resume token). */
    const Checkpoint &checkpoint() const { return cp; }

    /** Finish the session and take the response (counted only once). */
    MatchResponse finish();

    /** Abandon the session; the response reports Cancelled. */
    void cancel(const std::string &reason);

  private:
    friend class MatchService;
    StreamSession(MatchService &svc, MatchRequest req,
                  std::optional<Checkpoint> resume_from);

    void fail(ErrorCode code, const std::string &detail);
    /** A record of @p kind stamped with where the session stands. */
    telem::EventRecord event(telem::EventKind kind) const;
    /** The current window as a case (the flight recorder's handle). */
    telem::CaseRef windowCase() const;
    Beat windowBudget(std::size_t window_len) const;
    void prefetchFrom(ServiceBackend &backend, std::size_t rung);

    MatchService &service;
    MatchRequest request;
    Checkpoint cp;
    MatchResponse response;
    /** Chunk window scratch, reused across step() calls. */
    std::vector<Symbol> window;
    /** Cross-check failures charged against each rung this request. */
    std::vector<unsigned> rungFaults;
    /** The windows last handed to a rung's prefetch() (scratch). */
    std::vector<std::span<const Symbol>> upcoming;
    /** That rung, and the text offset its windows run up to. */
    std::size_t prefetchRung = static_cast<std::size_t>(-1);
    std::size_t prefetchEnd = 0;
    /** Stage attribution for this request (reqobs). */
    telem::StageClock clock;
    bool finished = false;
    bool observed = false;
};

/** The resilient streaming match service. */
class MatchService : public FrontEnd
{
  public:
    /** Build with the default ladder for @p config (see makeDefaultLadder). */
    explicit MatchService(ServiceConfig config);

    /** Build with a caller-supplied degradation ladder (rung 0 first). */
    MatchService(ServiceConfig config,
                 std::vector<std::unique_ptr<ServiceBackend>> ladder_rungs);

    const ServiceConfig &config() const { return cfg; }

    /** Rung names, in degradation order. */
    std::vector<std::string> ladderNames() const;

    /** Typed validation; nullopt when the request is admissible. */
    std::optional<ServiceError> validate(const MatchRequest &req) const;

    /** Serve one request end to end (validate + stream + respond). */
    MatchResponse serve(const MatchRequest &req);

    /** Open a streaming session (validated; check the first error). */
    StreamSession startSession(const MatchRequest &req);

    /** Resume a killed request from @p from; output is bit-identical. */
    MatchResponse resume(const MatchRequest &req, const Checkpoint &from);

    /** Result of submitting through the admission queue. */
    struct SubmitResult
    {
        /** True when the request was queued (or served via Block). */
        bool accepted = false;
        /** The typed rejection when not accepted. */
        ServiceError error;
        /** Response for a request shed to make room, if any. */
        std::optional<MatchResponse> shedResponse;
        /** Responses drained inline by the Block policy. */
        std::vector<MatchResponse> drained;
    };

    /** Offer a request to the admission queue under the policy. */
    SubmitResult submit(MatchRequest req);

    /** Serve everything queued, in order. */
    std::vector<MatchResponse> drain();

    std::size_t queuedRequests() const { return queue.size(); }
    const AdmissionQueue &admission() const { return queue; }

    /**
     * The replay journal: every serving event (admissions, chunk
     * commits with their checkpoint digests, skips, cancels, falls,
     * failures) in order, wall-clock free, so two identical runs dump
     * byte-identical journals -- diff them to find the first divergent
     * event. An unbounded recorder; empty unless journalEnabled.
     */
    const telem::FlightRecorder &journal() const { return log; }
    telem::FlightRecorder &journal() { return log; }

    /**
     * stats() holds counters served, completed, failed, rejected,
     * degradations, watchdogTrips, crossCheckFailures, checkpoints,
     * resumes; gauge queue_depth; histogram chunk_beats (per-committed
     * -chunk beat cost). The snapshot adds the admission queue's
     * counters (bare names; the sharded front end merges these across
     * shards), and statsDump() renders it as "service.x = n" lines.
     */
    telem::Snapshot metricsSnapshot() const override;

    /**
     * The flight recorder (the last 64 events): chunk commits plus
     * watchdog trips,
     * ladder transitions and cross-check mismatches, each stamped
     * with beat index, shard id, error-taxonomy code and the chunk's
     * case reference. Trips dump automatically.
     */
    const telem::FlightRecorder &flightRecorder() const { return flight; }
    telem::FlightRecorder &flightRecorder() { return flight; }

  private:
    friend class StreamSession;

    /** Append @p ev to the journal when it is enabled. */
    void journalEvent(telem::EventRecord ev);

    ServiceConfig cfg;
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    AdmissionQueue queue;
    BeatWatchdog dog;
    telem::FlightRecorder log{telem::JournalTag{}};

    telem::Counter &servedCtr;
    telem::Counter &completedCtr;
    telem::Counter &failedCtr;
    telem::Counter &degradationsCtr;
    telem::Counter &watchdogTripsCtr;
    telem::Counter &crossCheckFailuresCtr;
    telem::Counter &checkpointsCtr;
    telem::Counter &resumesCtr;
    telem::Gauge &queueDepthGauge;
    telem::LogHistogram &chunkBeatsHist;
    telem::FlightRecorder flight;
};

/**
 * The default degradation ladder for @p config: gate-level netlist,
 * then the behavioral array, then the software baseline. The gate
 * rung is the fabricated prototype's fidelity; the software rung can
 * always answer.
 */
std::vector<std::unique_ptr<ServiceBackend>> makeDefaultLadder(
    const ServiceConfig &config);

/**
 * The request admission rules, shared by every front end (streaming,
 * sharded, batched, dictionary): typed validation of pattern shape,
 * size bounds and alphabet membership against @p cfg; nullopt when
 * admissible.  validateRequest composes the two primitives below;
 * front ends with their own request shapes (batch groups, dictionary
 * sessions) call the primitives directly so one rule set admits
 * everywhere.
 */
std::optional<ServiceError> validateRequest(const FrontEndConfig &cfg,
                                             const MatchRequest &req);

/**
 * Pattern admission alone: non-empty, within maxPatternLen, every
 * non-wild symbol inside the configured alphabet.  @p label names the
 * pattern in error details ("pattern", "dict[3]", ...).
 */
std::optional<ServiceError> validatePattern(
    const FrontEndConfig &cfg, const std::vector<Symbol> &pattern,
    const std::string &label = "pattern");

/**
 * Text/chunk admission alone: every symbol inside the alphabet (wild
 * cards are NOT admitted in text) and the cumulative stream length --
 * @p already_seen characters fed before this slice plus the slice --
 * within maxTextLen.  @p label names the slice in error details.
 */
std::optional<ServiceError> validateText(const FrontEndConfig &cfg,
                                          const std::vector<Symbol> &text,
                                          std::uint64_t already_seen = 0,
                                          const std::string &label = "text");

} // namespace spm::service

#endif // SPM_SERVICE_SERVICE_HH
