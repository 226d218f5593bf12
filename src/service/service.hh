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
 *                  committed chunk is cross-checked, so degraded
 *                  results are never silently wrong.
 */

#ifndef SPM_SERVICE_SERVICE_HH
#define SPM_SERVICE_SERVICE_HH

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/hostbus.hh"
#include "core/simdpar.hh"
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
    /** Bus pacing; its parity bit (on by default) is priced into demand. */
    core::HostBusModel bus{prototypeBeatPs, 8, true};
    /** Verify each window, batch pass or dictionary chunk published. */
    bool crossCheck = true;
};

/** Serving-side configuration of the streaming service. */
struct ServiceConfig : FrontEndConfig
{
    /** Character cells per hardware chip. */
    std::size_t cells = 8;
    /** Text characters streamed per chunk. */
    std::size_t chunkChars = 32;
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
 * What every serving front end shares: one metrics registry with the
 * "rejected", "crossChecks" and "crossCheckFailures" counters, the
 * request observer and its exemplar reservoir, the cross-check and the
 * stats surface. A front end derives from it and keeps only its code.
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

    /**
     * A started clock, credited with the wait since @p enqueued_ns;
     * its trace spans carry @p trace_id.
     */
    static telem::StageClock startClock(std::uint64_t enqueued_ns,
                                        std::uint64_t trace_id);

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

    /**
     * Whether @p bits are @p pattern's result bits over @p text at
     * [@p skip, text.size()), by the kernel's scalar tier (no rung runs
     * it unless SPM_SIMD_ISA caps it there); warm, it allocates nothing.
     */
    bool verify(std::span<const Symbol> text,
                std::span<const Symbol> pattern, const BitVec &bits,
                std::size_t skip = 0);

    /** Count one checked unit, a failed one unless @p ok; returns @p ok. */
    bool countCheck(bool ok)
    {
        crossChecksCtr.add();
        crossCheckFailuresCtr.add(ok ? 0 : 1);
        return ok;
    }

    telem::Registry metrics;

  private:
    const char *prefix;
    telem::Counter &rejectedCtr;
    telem::Counter &crossChecksCtr;
    telem::Counter &crossCheckFailuresCtr;
    telem::ExemplarReservoir exemplarStore;
    /** verify()'s checker, made on first use, and its reused row. */
    std::unique_ptr<core::SimdParallelMatcher> checker;
    BitVec checkBits;

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
 * output is bit-identical to an uninterrupted run. A session owns no
 * text: it views the request's text and pattern, which the caller
 * keeps alive, and every window a rung sees is a span of that text.
 */
class StreamSession
{
  public:
    /** Process the next chunk. True while more chunks remain. */
    bool step();

    /** True once the request is fully served or has failed. */
    bool done() const { return finished; }

    /**
     * The last durable checkpoint (resume token). Once the session
     * has served the whole text, its bits belong to the response: the
     * checkpoint keeps its offset, rung and beats, and resume()
     * rejects it.
     */
    const Checkpoint &checkpoint() const { return cp; }

    /** Finish the session and take the response (counted only once). */
    MatchResponse finish();

    /** Abandon the session; the response reports Cancelled. */
    void cancel(const std::string &reason);

  private:
    friend class MatchService;
    friend class ShardedMatchService;
    /**
     * A session over @p piece (the request's text, or a slice of it)
     * for @p req; @p resume_from, when set, is the resume point.
     */
    StreamSession(MatchService &svc, const MatchRequest &req,
                  std::span<const Symbol> piece,
                  const Checkpoint *resume_from = nullptr);

    /** Step to the end, conclude, and give the response up. */
    MatchResponse run();
    /** finish() without the copy: publish or cancel, count once. */
    void conclude();
    void fail(ErrorCode code, const std::string &detail);
    void flushBeatRun();
    /** A record of @p kind stamped with where the session stands. */
    telem::EventRecord event(telem::EventKind kind) const;
    /** The min(k-1, @p to) text characters before offset @p to. */
    std::span<const Symbol> tailAt(std::size_t to) const;
    /**
     * The window of the chunk at text offset @p from: the tail before
     * it, then the chunk, as one span of the text.
     */
    std::span<const Symbol> windowAt(std::size_t from) const;
    Beat windowBudget(std::size_t window_len) const;
    void prefetchFrom(ServiceBackend &backend, std::size_t rung);

    MatchService &service;
    /** The request, viewed: its owner outlives the session. */
    std::uint64_t requestId;
    std::span<const Symbol> text;
    std::span<const Symbol> pattern;
    Beat deadlineBeats;
    Checkpoint cp;
    MatchResponse response;
    /** Cross-check failures charged against each rung this request. */
    std::vector<unsigned> rungFaults;
    /** The windows last handed to a rung's prefetch() (scratch). */
    std::array<std::span<const Symbol>, 64> upcoming;
    /** That rung, and the text offset its windows run up to. */
    std::size_t prefetchRung = static_cast<std::size_t>(-1);
    std::size_t prefetchEnd = 0;
    /** Stage attribution for this request (reqobs). */
    telem::StageClock clock;
    /** The chunk_beats run not yet sampled: runChunks of runBeats each. */
    Beat runBeats = 0;
    std::uint64_t runChunks = 0;
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

    /**
     * Open a streaming session (validated; check the first error).
     * The session views @p req, which must outlive it, so a temporary
     * is refused.
     */
    StreamSession startSession(const MatchRequest &req);
    StreamSession startSession(const MatchRequest &&) = delete;

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
     * The replay journal: the last telem::journalCapacity serving
     * events (admissions, chunk commits with their checkpoint digests,
     * skips, cancels, falls, failures) in order, wall-clock free, so
     * two identical runs dump byte-identical journals -- diff them to
     * find the first divergent event within that window. Empty unless
     * journalEnabled.
     */
    const telem::FlightRecorder &journal() const { return log; }
    telem::FlightRecorder &journal() { return log; }

    /**
     * stats() holds counters served, completed, failed, rejected,
     * degradations, watchdogTrips, crossChecks (window attempts
     * checked, re-runs included), crossCheckFailures (attempts that
     * mismatched), checkpoints, resumes; gauge queue_depth; histogram
     * chunk_beats (per-committed-chunk beat cost). The snapshot adds
     * the admission queue's counters and journal_dropped, the
     * journal's records that fell off since its clear() (bare names;
     * the sharded front end merges these across shards, and its own
     * cross-check counters read 0), and statsDump() renders it as
     * "service.x = n" lines.
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
    const FrontEndConfig &cfg, std::span<const Symbol> pattern,
    std::string_view label = "pattern");

/**
 * Text/chunk admission alone: every symbol inside the alphabet (wild
 * cards are NOT admitted in text) and the cumulative stream length --
 * @p already_seen characters fed before this slice plus the slice --
 * within maxTextLen.  @p label names the slice in error details.
 */
std::optional<ServiceError> validateText(const FrontEndConfig &cfg,
                                          std::span<const Symbol> text,
                                          std::uint64_t already_seen = 0,
                                          std::string_view label = "text");

/**
 * Whether a text whose symbols OR to @p text_or is inside the alphabet
 * with no rescan: validateText's first check, for a front end that
 * took the OR while reading the text for its own use. A false answer
 * is not a rejection; validateText rescans and decides.
 */
bool textOrAdmits(const FrontEndConfig &cfg, Symbol text_or);

} // namespace spm::service

#endif // SPM_SERVICE_SERVICE_HH
