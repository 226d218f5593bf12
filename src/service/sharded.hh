/**
 * @file
 * The sharded multi-threaded front end of the match service, with
 * shard-level fault tolerance.
 *
 * One MatchService streams a request through one chip; when the host
 * has several chips (or several simulator cores) the text can be cut
 * into shards and matched concurrently, because r_i depends only on
 * the k-1 characters before position i. ShardedMatchService owns a
 * fixed pool of worker threads and one complete MatchService per
 * shard slot -- each with its own degradation ladder, watchdog,
 * checkpoints and replay journal, so the resilience semantics of the
 * single-stream service hold per shard with nothing shared between
 * workers. serve() splits the text into at most threadCount() slices:
 * spans of the one copy of the text that the slice wave owns (an
 * abandoned straggler may outlive serve() and its caller's request),
 * each streamed on its slot as a StreamSession.
 * Each shard's window overlaps its left neighbor by k-1 characters of
 * warm-up (dropped at stitching: those bits are computed with
 * truncated history) and also extends k-1 characters past its own
 * end -- so the first k-1 *kept* positions of every interior slice
 * are computed twice with full history, once by each neighbor. The
 * stitched response is bit-identical to the unsharded service.
 *
 * The fault-tolerance story mirrors Section 5's wafer-harvest model
 * one level up: the paper buys yield from defective cells with spare
 * cells and reconfiguration; the serving layer buys availability from
 * defective *shards* with spare shard slots and re-routing:
 *
 *   bounded waits  serve() never blocks past batchDeadlineMs on a
 *                  wedged worker -- unfinished slices are abandoned
 *                  (their late results discarded by attempt epoch)
 *                  and retried elsewhere;
 *   task isolation an exception escaping a shard task is caught at
 *                  the task boundary and surfaced as a typed
 *                  ShardError, never process death;
 *   spare slots    a failed or timed-out slice is re-executed on a
 *                  spare MatchService slot (the harvest analogy made
 *                  explicit), up to two retries per slice;
 *   quarantine     a slot that fails repeatedly trips a circuit
 *                  breaker after three consecutive failures: it stops
 *                  receiving primary slices until a half-open probe
 *                  (every eight batches) succeeds;
 *   overlap check  each slice's right extension recomputes the k-1
 *                  bits its right neighbor will keep -- before
 *                  stitching, the two full-history copies are compared
 *                  as an end-to-end integrity check; a mismatch
 *                  re-executes both suspect slices on spares and dumps
 *                  the slice's case reference via the flight
 *                  recorder.
 *
 * Time is reported both ways: beats is the critical path (the slowest
 * shard, what a host with one chip per shard would wait), and
 * lastTotalBeats() the summed effort across shards (including retried
 * attempts).
 */

#ifndef SPM_SERVICE_SHARDED_HH
#define SPM_SERVICE_SHARDED_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "service/backend.hh"
#include "service/service.hh"
#include "telemetry/event.hh"

namespace spm::service
{

/** Configuration of the sharded front end. */
struct ShardedConfig
{
    /** Per-shard serving configuration (ladder, limits, watchdog). */
    ServiceConfig base;
    /** Worker threads; also the maximum shard count. */
    unsigned threads = 4;
    /**
     * Smallest text slice worth a shard of its own: requests shorter
     * than 2 * minShardChars stay on one shard, and the shard count
     * never exceeds text/minShardChars. Keeps the k-1 overlap recompute
     * and per-shard chip warm-up amortized.
     */
    std::size_t minShardChars = 256;
    /**
     * Spare shard slots (each a full MatchService) kept out of primary
     * slice assignment and used to re-execute failed, timed-out or
     * overlap-suspect slices -- the Section 5 spare-cell idea applied
     * to the serving layer. 0 disables failover (a failed slice fails
     * the request).
     */
    unsigned spareShards = 1;
    /**
     * Bounded wait for the primary slice wave, in wall-clock
     * milliseconds (must be positive); a slice not resolved by then
     * is abandoned (its worker may still be running; the late result
     * is discarded) and retried on a spare.
     */
    std::uint32_t batchDeadlineMs = 2000;
    /**
     * Pin worker i to core i mod hardware_concurrency() (Linux
     * affinity; elsewhere a no-op). Off by default: pinning helps a
     * dedicated benchmark host and hurts a shared one, so the benches
     * opt in explicitly.
     */
    bool pinThreads = false;
};

/** Circuit-breaker state of one shard slot. */
enum class BreakerState : unsigned char
{
    Closed,   ///< healthy, receives primary slices
    Open,     ///< quarantined, skipped at assignment
    HalfOpen, ///< probe in flight; next verdict decides
};

/** How one slice attempt failed (for lastShardErrors()). */
enum class ShardFaultKind : unsigned char
{
    Exception,       ///< the shard task threw; caught at the boundary
    Timeout,         ///< not resolved within batchDeadlineMs
    ServeError,      ///< the slice's session returned a typed error
    OverlapMismatch, ///< neighbor overlap bits disagreed
};

/**
 * One shard-level fault observed while serving a request: which slice
 * on which slot, what went wrong, and which attempt it was. The
 * sharded service keeps the list for the last serve() call so hosts
 * and tests can audit recoveries (a recovered request is still ok()).
 */
struct ShardError
{
    std::size_t slice = 0;   ///< slice index within the request
    std::uint32_t slot = 0;  ///< shard slot that failed
    ShardFaultKind kind = ShardFaultKind::ServeError;
    unsigned attempt = 0;    ///< 0 = primary, 1+ = retries
    std::string detail;
};

/**
 * Data-parallel match service: a thread pool over per-shard
 * MatchService instances with overlap stitching, spare-slot failover
 * and per-slot circuit breakers.
 */
class ShardedMatchService : public FrontEnd
{
  public:
    /** Factory producing a fresh degradation ladder for one shard. */
    using LadderFactory =
        std::function<std::vector<std::unique_ptr<ServiceBackend>>(
            const ServiceConfig &)>;

    /** Build with the default ladder in every shard slot. */
    explicit ShardedMatchService(ShardedConfig config);

    /**
     * Build with @p factory making each shard's ladder (called once
     * per slot at construction, primaries first, then spares; the
     * ServiceConfig argument carries the slot's shardId) -- how the
     * benches pin a shard to one particular engine and the chaos
     * harness wraps rungs per slot.
     */
    ShardedMatchService(ShardedConfig config, const LadderFactory &factory);

    ~ShardedMatchService();

    ShardedMatchService(const ShardedMatchService &) = delete;
    ShardedMatchService &operator=(const ShardedMatchService &) = delete;

    const ShardedConfig &config() const { return cfg; }
    unsigned threadCount() const { return static_cast<unsigned>(workers.size()); }
    unsigned spareCount() const { return cfg.spareShards; }

    /** Shards serve() would use for a request of this shape. */
    std::size_t shardCountFor(std::size_t text_len,
                              std::size_t pattern_len) const;

    /** Typed validation: the shared rules (validateRequest). */
    std::optional<ServiceError> validate(const MatchRequest &req) const
    {
        return validateRequest(cfg.base, req);
    }

    /**
     * Serve one request across the shards. The whole request is
     * validated once, before slicing: an inadmissible one counts in
     * "rejected" and draws exactly the unsharded service's error.
     * The result bits, and every per-shard journal, are deterministic
     * for a given request and shard count; only wall-clock
     * interleaving varies between runs. Every slice, a lone one
     * included, runs on the pool, so the call never blocks past the
     * batch deadline plus the (bounded, inline) retry work; a slice
     * that cannot be recovered yields a typed ShardFailed error,
     * never a hang and never silent corruption.
     */
    MatchResponse serve(const MatchRequest &req);

    /** @{ Breakdown of the last serve() call. */
    std::size_t lastShards() const { return nLastShards; }
    /** Slowest shard's beats: the parallel makespan. */
    Beat lastCriticalBeats() const { return lastCritical; }
    /** Summed beats across shards (including retries). */
    Beat lastTotalBeats() const { return lastTotal; }
    /** Shard faults observed (and possibly recovered) last serve(). */
    const std::vector<ShardError> &lastShardErrors() const
    {
        return lastErrors;
    }
    /** @} */

    /**
     * The per-shard service in slot @p i (journals, each of the last
     * telem::journalCapacity records, and stats). Primary slots are
     * [0, threadCount()); spares follow.
     */
    const MatchService &shard(std::size_t i) const { return *shards.at(i); }

    /** Breaker state of primary slot @p i. */
    BreakerState breakerState(std::size_t i) const;

    /**
     * Serving metrics summed across every shard slot (counters and
     * histogram cells add; queue_depth gauges sum; the slices' req.*
     * histograms re-keyed shard.req.*), plus, named "sharded.x", the
     * sharded-layer gauges (threads, spares, last_shards,
     * quarantined_now), stats() -- the supervision counters
     * (shard_failures, shard_timeouts, shard_exceptions,
     * shard_retries, spare_serves, quarantines, probes,
     * overlap_checks, overlap_mismatches), rejected, the request-level
     * req.* histograms and queue_wait_beats (enqueue-to-dequeue
     * handoff latency per slice task, in beats). statsDump() prints
     * it as is.
     */
    telem::Snapshot metricsSnapshot() const override;

    /**
     * The sharded layer's own flight recorder: failover, quarantine
     * and overlap-mismatch events, each carrying the suspect slice's
     * text span and case reference. Overlap mismatches
     * trip a dump automatically (see telem::FlightRecorder).
     */
    const telem::FlightRecorder &flightRecorder() const { return flight; }
    telem::FlightRecorder &flightRecorder() { return flight; }

  private:
    struct Batch;
    struct SliceState;

    void workerLoop(unsigned worker_index);

    /**
     * Stream @p piece, a span of the admitted @p whole's text, as a
     * session on slot @p slot; exceptions -> typed outcome.
     */
    MatchResponse serveSliceOn(std::size_t slot, const MatchRequest &whole,
                               std::span<const Symbol> piece,
                               std::string *exception_text);

    /** Record a slice verdict on @p slot's breaker. */
    void noteSlotOutcome(std::uint32_t slot, bool ok);

    /**
     * Lease up to @p want primary slots whose breaker is closed or due
     * a probe. With none, a free spare serves (or, spare-less, a free
     * quarantined primary as an implicit probe); empty when every
     * candidate is leased.
     */
    std::vector<std::uint32_t> leaseSlots(std::size_t want);

    /** Lease a free spare slot, round robin; nullopt when none is. */
    std::optional<std::uint32_t> leaseSpare();

    /** Return @p slot's lease. */
    void release(std::uint32_t slot);

    ShardedConfig cfg;
    std::vector<std::unique_ptr<MatchService>> shards;

    std::vector<std::thread> workers;
    std::mutex mu;
    std::condition_variable taskReady;
    std::deque<std::function<void()>> taskQueue;
    bool stopping = false;

    /** Guards slot health, leases, the spare rotor and batch counter. */
    mutable std::mutex healthMu;
    struct SlotHealth
    {
        BreakerState state = BreakerState::Closed;
        unsigned consecutiveFailures = 0;
        std::uint64_t openedAtBatch = 0;
        bool busy = false; ///< leased to a (possibly abandoned) task
    };
    /** Every slot; the breaker fields only matter for primaries. */
    std::vector<SlotHealth> slotHealth;
    std::uint64_t batchCounter = 0;
    std::uint32_t spareRotor = 0;

    std::size_t nLastShards = 0;
    Beat lastCritical = 0;
    Beat lastTotal = 0;
    std::vector<ShardError> lastErrors;
    std::string rungNames; ///< last response's rungs, '+'-joined

    telem::Counter &shardFailuresCtr;
    telem::Counter &shardTimeoutsCtr;
    telem::Counter &shardExceptionsCtr;
    telem::Counter &shardRetriesCtr;
    telem::Counter &spareServesCtr;
    telem::Counter &quarantinesCtr;
    telem::Counter &probesCtr;
    telem::Counter &overlapChecksCtr;
    telem::Counter &overlapMismatchesCtr;
    telem::LogHistogram &queueWaitHist;
    telem::FlightRecorder flight;
};

} // namespace spm::service

#endif // SPM_SERVICE_SHARDED_HH
