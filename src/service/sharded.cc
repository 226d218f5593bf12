#include "service/sharded.hh"

#include <algorithm>
#include <chrono>

#if defined(__linux__)
#include <pthread.h>
#include <sched.h>
#endif

#include "telemetry/telem.hh"
#include "util/logging.hh"

namespace spm::service
{

namespace
{

/** Re-execution attempts per slice beyond the primary one. */
constexpr unsigned sliceRetries = 2;

/** Consecutive slice failures that quarantine a slot. */
constexpr unsigned failuresToQuarantine = 3;

/** Batches after which a quarantined slot is probed half-open. */
constexpr std::uint64_t batchesToProbe = 8;

/**
 * Pin the calling thread to one core (round-robin over the cores the
 * machine has). Linux-only; a best-effort no-op elsewhere or when the
 * scheduler refuses. Pinning removes the migration jitter that shows
 * up as long-tail queue_wait_beats on a loaded host.
 */
void
pinToCore(unsigned worker_index)
{
#if defined(__linux__)
    const unsigned cores =
        std::max(1u, std::thread::hardware_concurrency());
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(worker_index % cores, &set);
    if (pthread_setaffinity_np(pthread_self(), sizeof(set), &set) != 0)
        spm_warn("sharded: could not pin worker ", worker_index,
                 " to a core; continuing unpinned");
#else
    (void)worker_index;
#endif
}

} // namespace

const char *
shardFaultKindName(ShardFaultKind kind)
{
    switch (kind) {
    case ShardFaultKind::Exception:
        return "exception";
    case ShardFaultKind::Timeout:
        return "timeout";
    case ShardFaultKind::ServeError:
        return "serve_error";
    case ShardFaultKind::OverlapMismatch:
        return "overlap_mismatch";
    }
    return "?";
}

std::string
ShardError::toString() const
{
    return "slice " + std::to_string(slice) + " slot " +
           std::to_string(slot) + " attempt " + std::to_string(attempt) +
           " " + shardFaultKindName(kind) +
           (detail.empty() ? "" : ": " + detail);
}

/**
 * One slice of a sharded request: the piece (window including the k-1
 * overlap), where the current attempt runs, and how it resolved.
 * Written by the owning task under the batch mutex; a task whose
 * epoch was bumped (abandoned on timeout) discards its late result.
 */
struct ShardedMatchService::SliceState
{
    MatchRequest piece;
    std::size_t overlapLen = 0; ///< warm-up chars left of the slice start
    std::size_t keepLen = 0;    ///< result bits this slice contributes
    std::size_t rightExt = 0;   ///< extra chars past the slice end
    std::uint32_t slot = 0;     ///< slot of the latest attempt
    bool started = false;       ///< a worker picked the primary task up
    bool abandoned = false;     ///< timed out; straggler owns the lease
    unsigned epoch = 0;
    bool resolved = false;
    bool threw = false;
    std::string exceptionText;
    MatchResponse resp;
    Beat attemptBeats = 0; ///< beats summed across every attempt
};

/** Shared state of one serve() slice wave; tasks hold it by shared_ptr. */
struct ShardedMatchService::Batch
{
    std::mutex bmu;
    std::condition_variable resolvedCv;
    std::vector<SliceState> slices;
    std::size_t unresolved = 0;
};

ShardedMatchService::ShardedMatchService(ShardedConfig config)
    : ShardedMatchService(std::move(config), [](const ServiceConfig &c) {
          return makeDefaultLadder(c);
      })
{
}

ShardedMatchService::ShardedMatchService(ShardedConfig config,
                                         const LadderFactory &factory)
    // Striped for the workers; the snapshot names all "sharded.x".
    : FrontEnd(config.base.alphabetBits, "sharded", "", 4),
      cfg(std::move(config)),
      shardFailuresCtr(metrics.counter("shard_failures")),
      shardTimeoutsCtr(metrics.counter("shard_timeouts")),
      shardExceptionsCtr(metrics.counter("shard_exceptions")),
      shardRetriesCtr(metrics.counter("shard_retries")),
      spareServesCtr(metrics.counter("spare_serves")),
      quarantinesCtr(metrics.counter("quarantines")),
      probesCtr(metrics.counter("probes")),
      overlapChecksCtr(metrics.counter("overlap_checks")),
      overlapMismatchesCtr(metrics.counter("overlap_mismatches")),
      queueWaitHist(metrics.logHistogram("queue_wait_beats"))
{
    spm_assert(cfg.threads > 0, "sharded service needs at least one thread");
    spm_assert(cfg.minShardChars > 0, "minShardChars must be positive");
    spm_assert(cfg.batchDeadlineMs > 0, "batchDeadlineMs must be positive");
    const unsigned slots = cfg.threads + cfg.spareShards;
    shards.reserve(slots);
    for (unsigned i = 0; i < slots; ++i) {
        ServiceConfig shard_cfg = cfg.base;
        shard_cfg.shardId = i;
        auto ladder = factory(shard_cfg);
        shards.push_back(std::make_unique<MatchService>(
            std::move(shard_cfg), std::move(ladder)));
    }
    slotHealth.resize(slots);
    workers.reserve(cfg.threads);
    for (unsigned i = 0; i < cfg.threads; ++i)
        workers.emplace_back([this, i] { workerLoop(i); });
}

ShardedMatchService::~ShardedMatchService()
{
    {
        std::lock_guard<std::mutex> lock(mu);
        stopping = true;
    }
    taskReady.notify_all();
    for (std::thread &w : workers)
        w.join();
}

void
ShardedMatchService::workerLoop(unsigned worker_index)
{
    if (cfg.pinThreads)
        pinToCore(worker_index);
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mu);
            taskReady.wait(lock,
                           [this] { return stopping || !taskQueue.empty(); });
            if (taskQueue.empty())
                return; // stopping and drained
            task = std::move(taskQueue.front());
            taskQueue.pop_front();
        }
        // Task boundary: nothing a task throws may unwind into the
        // pool thread and terminate the process. Slice tasks convert
        // their own exceptions to typed outcomes before this; the
        // catch here is the independent last line of defense.
        try {
            task();
        } catch (const std::exception &e) {
            spm_warn("sharded worker task threw past its boundary: ",
                     e.what());
        } catch (...) {
            spm_warn("sharded worker task threw a non-standard exception");
        }
    }
}

void
ShardedMatchService::enqueue(std::vector<std::function<void()>> &tasks)
{
    // One lock acquisition and one wakeup for the whole wave (the
    // batched handoff), with each task wrapped so its handoff latency
    // -- enqueue to the moment a worker starts it -- lands in
    // queue_wait_beats, converted from wall nanoseconds at the
    // prototype beat period.
    const auto enqueued_at = std::chrono::steady_clock::now();
    {
        std::lock_guard<std::mutex> lock(mu);
        for (std::function<void()> &t : tasks)
            taskQueue.push_back(
                [this, enqueued_at, task = std::move(t)] {
                    [[maybe_unused]] const double wait_ns =
                        std::chrono::duration<double, std::nano>(
                            std::chrono::steady_clock::now() -
                            enqueued_at)
                            .count();
                    SPM_THIST(queueWaitHist,
                              wait_ns * 1000.0 /
                                  static_cast<double>(prototypeBeatPs));
                    task();
                });
    }
    taskReady.notify_all();
}

MatchResponse
ShardedMatchService::serveSliceOn(std::size_t slot,
                                  const MatchRequest &piece,
                                  std::string *exception_text)
{
    SPM_TSPAN("sharded.shard", telem::cat::sharded, 0,
              static_cast<std::uint64_t>(slot));
    try {
        return shards[slot]->serve(piece);
    } catch (const std::exception &e) {
        *exception_text = e.what();
    } catch (...) {
        *exception_text = "non-standard exception";
    }
    MatchResponse r;
    r.id = piece.id;
    r.error = ServiceError::make(ErrorCode::ShardFailed,
                                 "shard task threw: " + *exception_text);
    return r;
}

void
ShardedMatchService::noteSlotOutcome(std::uint32_t slot, bool ok)
{
    if (slot >= cfg.threads)
        return; // spares carry no breaker
    bool quarantined = false;
    {
        std::lock_guard<std::mutex> lock(healthMu);
        SlotHealth &h = slotHealth[slot];
        if (ok) {
            h.consecutiveFailures = 0;
            h.state = BreakerState::Closed;
        } else {
            ++h.consecutiveFailures;
            // A failed probe goes straight back to quarantine.
            if (h.state == BreakerState::HalfOpen ||
                (h.state == BreakerState::Closed &&
                 h.consecutiveFailures >= failuresToQuarantine)) {
                h.state = BreakerState::Open;
                h.openedAtBatch = batchCounter;
                quarantined = true;
            }
        }
    }
    if (quarantined) {
        quarantinesCtr.add();
        telem::EventRecord ev{.kind = telem::EventKind::Quarantine,
                              .shard = slot};
        ev.setDetail("breaker opened on consecutive failures");
        flight.record(std::move(ev));
        spm_warn("sharded: slot ", slot, " quarantined");
    }
}

std::vector<std::uint32_t>
ShardedMatchService::leaseSlots(std::size_t want)
{
    std::vector<std::uint32_t> out;
    std::uint64_t probes = 0;
    {
        std::lock_guard<std::mutex> lock(healthMu);
        ++batchCounter;
        for (std::uint32_t s = 0; s < cfg.threads; ++s) {
            SlotHealth &h = slotHealth[s];
            if (h.busy)
                continue; // leased to a (possibly abandoned) task
            if (h.state == BreakerState::Open) {
                if (batchCounter - h.openedAtBatch < batchesToProbe)
                    continue;
                h.state = BreakerState::HalfOpen;
                ++probes;
            }
            if (out.size() < want) {
                h.busy = true;
                out.push_back(s);
            }
        }
        // Spare-less with every primary quarantined or leased: force
        // a free one through as an implicit probe.
        for (std::uint32_t s = 0;
             out.empty() && cfg.spareShards == 0 && s < cfg.threads; ++s)
            if (!slotHealth[s].busy) {
                slotHealth[s].busy = true;
                out.push_back(s);
            }
    }
    if (probes > 0)
        probesCtr.add(probes);
    if (out.empty())
        if (const std::optional<std::uint32_t> spare = leaseSpare()) {
            spareServesCtr.add();
            out.push_back(*spare);
        }
    return out;
}

std::optional<std::uint32_t>
ShardedMatchService::leaseSpare()
{
    std::lock_guard<std::mutex> lock(healthMu);
    for (unsigned i = 0; i < cfg.spareShards; ++i) {
        const std::uint32_t slot =
            cfg.threads + (spareRotor++ % cfg.spareShards);
        if (!slotHealth[slot].busy) {
            slotHealth[slot].busy = true;
            return slot;
        }
    }
    return std::nullopt;
}

void
ShardedMatchService::release(std::uint32_t slot)
{
    std::lock_guard<std::mutex> lock(healthMu);
    slotHealth[slot].busy = false;
}

BreakerState
ShardedMatchService::breakerState(std::size_t i) const
{
    spm_assert(i < cfg.threads, "breakers guard primary slots only");
    std::lock_guard<std::mutex> lock(healthMu);
    return slotHealth[i].state;
}

std::size_t
ShardedMatchService::shardCountFor(std::size_t text_len,
                                   std::size_t pattern_len) const
{
    const std::size_t floor_chars =
        std::max(cfg.minShardChars, std::max<std::size_t>(pattern_len, 1));
    const std::size_t by_size = text_len / floor_chars;
    return std::clamp<std::size_t>(by_size, 1, cfg.threads);
}

std::optional<ServiceError>
ShardedMatchService::validate(const MatchRequest &req) const
{
    return validateRequest(cfg.base, req);
}

MatchResponse
ShardedMatchService::serve(const MatchRequest &req)
{
    const std::size_t n = req.text.size();
    const std::size_t k = req.pattern.size();
    const std::size_t overlap = k > 0 ? k - 1 : 0;
    lastErrors.clear();
    nLastShards = 0;
    lastCritical = lastTotal = 0;

    // The whole request is admitted once, so errors and their details
    // are the unsharded service's, never a slice's.
    MatchResponse out;
    out.id = req.id;
    if (auto err = validate(req)) {
        out.error = reject(*err);
        return out;
    }

    telem::StageClock clock = startClock(req.enqueuedNs);
    SPM_TSPAN_NAMED(batch_span, "sharded.serve", telem::cat::sharded, 0,
                    req.id);

    // Route around quarantined and leased slots: the wafer-harvest
    // move one level up.
    const std::vector<std::uint32_t> slots =
        leaseSlots(shardCountFor(n, k));
    if (slots.empty()) {
        out.error = ServiceError::make(
            ErrorCode::ShardFailed,
            "every shard slot is leased to an unfinished slice");
        return out;
    }
    const std::size_t nshards = slots.size();
    nLastShards = nshards;

    // Shard s answers result positions [starts[s], starts[s+1]); its
    // window reaches k-1 characters left of that so boundary matches
    // see their full history, and k-1 characters right of it so the
    // first k-1 positions of the next slice are computed twice with
    // full history -- the genuinely redundant region the overlap
    // cross-check compares. (The left extension alone would not do:
    // a slice's own first k-1 bits are warm-up, computed with
    // truncated history, and are dropped, not cross-checked.)
    std::vector<std::size_t> starts(nshards + 1);
    for (std::size_t s = 0; s <= nshards; ++s)
        starts[s] = n * s / nshards;

    auto batch = std::make_shared<Batch>();
    batch->slices.resize(nshards);
    batch->unresolved = nshards;
    for (std::size_t s = 0; s < nshards; ++s) {
        SliceState &st = batch->slices[s];
        const std::size_t start = starts[s];
        const std::size_t ws = start >= overlap ? start - overlap : 0;
        const std::size_t ext =
            nshards > 1 ? std::min(overlap, n - starts[s + 1]) : 0;
        st.piece.id = req.id;
        st.piece.pattern = req.pattern;
        st.piece.deadlineBeats = req.deadlineBeats;
        st.piece.text.assign(req.text.begin() + ws,
                             req.text.begin() + starts[s + 1] + ext);
        st.overlapLen = start - ws;
        st.keepLen = starts[s + 1] - start;
        st.rightExt = ext;
        st.slot = slots[s];
        // Slices inherit a fresh enqueue stamp so each shard's own
        // stage clock credits the pool handoff as queue wait.
        if (clock.running())
            st.piece.enqueuedNs = telem::nowNs();
    }
    clock.mark(telem::Stage::Admit);

    // Every slice, a lone one included, runs on the pool: only a wait
    // with a deadline bounds a worker that stopped making progress.
    std::vector<std::function<void()>> tasks;
    tasks.reserve(nshards);
    for (std::size_t s = 0; s < nshards; ++s) {
        tasks.push_back([this, batch, s, slot = slots[s]] {
            SliceState &st = batch->slices[s];
            unsigned my_epoch;
            {
                // The epoch snapshot races with the supervisor's
                // abandonment bump unless taken under the batch lock.
                // A slice abandoned before its task started has
                // nothing to serve, and the supervisor took its lease
                // back.
                std::lock_guard<std::mutex> lock(batch->bmu);
                if (st.resolved)
                    return;
                st.started = true;
                my_epoch = st.epoch;
            }
            std::string exc;
            MatchResponse r = serveSliceOn(slot, st.piece, &exc);
            bool owned = false;
            {
                std::lock_guard<std::mutex> lock(batch->bmu);
                if (st.epoch == my_epoch && !st.resolved) {
                    st.resp = std::move(r);
                    st.threw = !exc.empty();
                    st.exceptionText = std::move(exc);
                    st.attemptBeats += st.resp.beats;
                    st.resolved = true;
                    --batch->unresolved;
                    owned = true;
                }
            }
            batch->resolvedCv.notify_all();
            // A slice the supervisor accepted has its lease released
            // by the supervisor (synchronously, so the next batch sees
            // the slot free); an abandoned straggler keeps the lease
            // until here, so no new task enters this slot's
            // MatchService concurrently.
            if (!owned)
                release(slot);
        });
    }
    enqueue(tasks);
    // Wait for the wave until the deadline, then abandon the
    // stragglers: bump their epoch so a late write is discarded, mark
    // them timed out, and let the retry loop re-execute them on
    // spares. A wedged worker keeps its slot lease until it actually
    // finishes; a slice no worker picked up in time charges no slot's
    // breaker.
    {
        std::unique_lock<std::mutex> lock(batch->bmu);
        batch->resolvedCv.wait_for(
            lock, std::chrono::milliseconds(cfg.batchDeadlineMs),
            [&batch] { return batch->unresolved == 0; });
        for (std::size_t s = 0; s < nshards; ++s) {
            SliceState &st = batch->slices[s];
            if (st.resolved)
                continue;
            ++st.epoch;
            st.abandoned = st.started;
            st.resolved = true;
            st.threw = false;
            st.resp = MatchResponse{};
            st.resp.id = req.id;
            st.resp.error = ServiceError::make(
                ErrorCode::ShardFailed,
                "slice timed out after " +
                    std::to_string(cfg.batchDeadlineMs) + " ms");
            --batch->unresolved;
            shardTimeoutsCtr.add();
            lastErrors.push_back({.slice = s,
                                  .slot = st.slot,
                                  .kind = ShardFaultKind::Timeout,
                                  .detail = st.resp.error.detail});
            if (st.started)
                noteSlotOutcome(st.slot, false);
        }
    }
    // Release the leases the supervisor holds, before the caller can
    // start another batch: a worker that answered in time has only
    // bookkeeping left, and a task that never started will not touch
    // its slot.
    for (const SliceState &st : batch->slices)
        if (!st.abandoned)
            release(st.slot);

    // --- Recovery: retry failed slices on spare slots ----------------
    // A slice's flight record: its answer span [starts[s], +keepLen)
    // and its window (which starts overlapLen earlier) as the case.
    const auto sliceEvent = [&](telem::EventKind kind, std::size_t s,
                                const SliceState &st) {
        telem::EventRecord ev{.kind = kind,
                              .shard = st.slot,
                              .requestId = req.id,
                              .offset = starts[s],
                              .length = st.keepLen};
        ev.caseRef = telem::CaseRef(req.id, cfg.base.alphabetBits,
                                    req.pattern, st.piece.text,
                                    starts[s] - st.overlapLen);
        return ev;
    };
    // A failed attempt: the slice's exception or its serve error.
    const auto noteFailedAttempt = [&](std::size_t s, const SliceState &st,
                                       unsigned attempt) {
        lastErrors.push_back(
            {.slice = s,
             .slot = st.slot,
             .kind = st.threw ? ShardFaultKind::Exception
                              : ShardFaultKind::ServeError,
             .attempt = attempt,
             .detail = st.threw ? st.exceptionText
                                : st.resp.error.toString()});
    };
    const auto retryOnSpare = [&](std::size_t s, SliceState &st,
                                  unsigned attempt,
                                  const std::string &why) -> bool {
        const std::optional<std::uint32_t> leased = leaseSpare();
        if (!leased)
            return false; // none, or every one leased to a straggler
        const std::uint32_t spare = *leased;
        shardRetriesCtr.add();
        spareServesCtr.add();
        telem::EventRecord ev =
            sliceEvent(telem::EventKind::ShardFailover, s, st);
        ev.setDetail(why + "; retrying slice " + std::to_string(s) +
                     " on spare slot " + std::to_string(spare));
        flight.record(std::move(ev));
        st.exceptionText.clear();
        st.resp = serveSliceOn(spare, st.piece, &st.exceptionText);
        release(spare);
        st.threw = !st.exceptionText.empty();
        st.attemptBeats += st.resp.beats;
        st.slot = spare;
        if (st.threw || !st.resp.ok())
            noteFailedAttempt(s, st, attempt);
        return true;
    };

    for (std::size_t s = 0; s < nshards; ++s) {
        SliceState &st = batch->slices[s];
        if (!st.threw && st.resp.ok()) {
            noteSlotOutcome(st.slot, true);
            continue;
        }
        // The request was admitted whole, so a failed slice is an
        // operational shard fault: an exception, a timeout or a serve
        // error. Charge the slot and fail over.
        // (Timeouts were recorded and charged at abandonment.)
        if (st.threw || st.resp.error.code != ErrorCode::ShardFailed) {
            if (st.threw)
                shardExceptionsCtr.add();
            noteFailedAttempt(s, st, 0);
            noteSlotOutcome(st.slot, false);
        }
        shardFailuresCtr.add();
        const std::string why = st.threw
                                    ? "exception: " + st.exceptionText
                                    : st.resp.error.toString();
        for (unsigned attempt = 1; attempt <= sliceRetries; ++attempt) {
            if (!retryOnSpare(s, st, attempt,
                              attempt == 1 ? why : "retry failed"))
                break;
            if (!st.threw && st.resp.ok())
                break;
        }
        if (st.threw || !st.resp.ok()) {
            // Unrecovered: surface as the typed shard error.
            const std::string detail =
                st.threw ? "shard task threw: " + st.exceptionText
                         : st.resp.error.toString();
            st.resp.error = ServiceError::make(
                ErrorCode::ShardFailed,
                "slice " + std::to_string(s) + " unrecovered after " +
                    std::to_string(sliceRetries) +
                    " retries: " + detail);
            st.resp.result.clear();
        }
    }
    // Request-level view: pool handoff, shard kernels, recovery
    // retries all happened between the admit mark and here.
    clock.mark(telem::Stage::Kernel);

    // --- Overlap cross-check: a free end-to-end integrity check ------
    // Neighbor shards computed the k-1 overlap twice; disagreement
    // means one of them corrupted bits past its own ladder cross-check
    // (or with that check off). Re-execute both suspects on spares; an
    // unresolved disagreement fails the request typed rather than
    // stitching unverified bits.
    if (nshards > 1 && overlap > 0) {
        std::size_t repairs = 0;
        const std::size_t max_repairs = nshards * (sliceRetries + 1);
        for (std::size_t s = 1; s < nshards; ++s) {
            SliceState &cur = batch->slices[s];
            SliceState &left = batch->slices[s - 1];
            if (!cur.resp.ok() || !left.resp.ok() || left.rightExt == 0)
                continue;
            overlapChecksCtr.add();
            // Global positions [starts[s], starts[s] + ext) were
            // computed twice with full history: as the left slice's
            // right extension and as the current slice's first kept
            // bits. Any disagreement is a real fault, not warm-up.
            const std::size_t ext = left.rightExt;
            const std::size_t left_base = left.overlapLen + left.keepLen;
            const auto pairAgrees = [&] {
                BitVec mine, theirs;
                mine.append(cur.resp.result.words(), cur.overlapLen, ext);
                theirs.append(left.resp.result.words(), left_base, ext);
                return mine == theirs;
            };
            if (pairAgrees())
                continue;
            overlapMismatchesCtr.add();
            lastErrors.push_back(
                {.slice = s,
                 .slot = cur.slot,
                 .kind = ShardFaultKind::OverlapMismatch,
                 .detail = "overlap bits disagree with slice " +
                           std::to_string(s - 1)});
            telem::EventRecord ev =
                sliceEvent(telem::EventKind::OverlapMismatch, s, cur);
            ev.code = errorCodeName(ErrorCode::ShardFailed);
            ev.setDetail("slices " + std::to_string(s - 1) + "/" +
                         std::to_string(s) + " disagree on " +
                         std::to_string(ext) + " overlap bits");
            flight.trip("overlap mismatch", std::move(ev));
            const bool can_repair =
                cfg.spareShards > 0 && repairs + 2 <= max_repairs;
            bool repaired = false;
            if (can_repair) {
                repairs += 2;
                retryOnSpare(s - 1, left, 1, "overlap mismatch suspect");
                retryOnSpare(s, cur, 1, "overlap mismatch suspect");
                repaired = !left.threw && left.resp.ok() && !cur.threw &&
                           cur.resp.ok() && pairAgrees();
            }
            if (!repaired) {
                cur.resp.error = ServiceError::make(
                    ErrorCode::ShardFailed,
                    "overlap mismatch between slices " +
                        std::to_string(s - 1) + " and " +
                        std::to_string(s) + " unresolved");
                cur.resp.result.clear();
            } else if (s >= 2) {
                // The repaired left slice must still agree with *its*
                // left neighbor; rewind to re-check that pair.
                s -= 2;
            }
        }
    }
    clock.mark(telem::Stage::CrossCheck);

    // --- Stitch ------------------------------------------------------
    for (std::size_t s = 0; s < nshards; ++s) {
        const SliceState &st = batch->slices[s];
        const MatchResponse &r = st.resp;
        if (!r.ok() && out.ok()) {
            out.error = r.error;
            if (nshards > 1)
                out.error.detail =
                    "shard " + std::to_string(s) + ": " + r.error.detail;
        }
        // Name each distinct rung once, in slice order.
        bool named = false;
        for (std::size_t t = 0; t < s && !named; ++t)
            named = batch->slices[t].resp.backend == r.backend;
        if (!named)
            out.backend += (s == 0 ? "" : "+") + r.backend;
        out.degradations += r.degradations;
        out.chunks += r.chunks;
        out.watchdogTrips += r.watchdogTrips;
        out.crossCheckFailures += r.crossCheckFailures;
        lastTotal += st.attemptBeats;
        lastCritical = std::max(lastCritical, r.beats);
        if (out.ok()) {
            // Keep only the slice's own positions: the warm-up prefix
            // belongs to shard s-1, the right extension to shard s+1.
            out.result.append(r.result.words(), st.overlapLen, st.keepLen);
        }
    }
    // The host waits for the slowest shard, not the sum.
    out.beats = lastCritical;
    batch_span.setBeat(lastCritical);
    if (!out.ok())
        out.result.clear();

    clock.mark(telem::Stage::Commit);
    clock.addBeats(out.beats);
    const char *reason = nullptr;
    for (const ShardError &se : lastErrors)
        if (se.kind == ShardFaultKind::OverlapMismatch)
            reason = "overlap mismatch";
    if (!reason && !lastErrors.empty())
        reason = "shard fault";
    if (!reason && out.watchdogTrips > 0)
        reason = "watchdog trip";
    observe(clock, req.id, reason, cfg.base.alphabetBits, req.pattern,
            req.text);
    return out;
}

telem::Snapshot
ShardedMatchService::metricsSnapshot() const
{
    telem::Snapshot snap;
    for (const auto &shard : shards)
        snap.merge(shard->metricsSnapshot());
    // The shards' own request observers measure *slices*; re-key them
    // under "shard." so they don't read as a whole-request service
    // next to the request-level "sharded.req.*" histograms below.
    for (auto &entry : snap.logHistograms)
        if (entry.first.rfind("req.", 0) == 0)
            entry.first = "shard." + entry.first;
    std::size_t quarantined = 0;
    {
        std::lock_guard<std::mutex> lock(healthMu);
        for (const SlotHealth &h : slotHealth)
            if (h.state == BreakerState::Open)
                ++quarantined;
    }
    const telem::Snapshot own = metrics.snapshot();
    for (const auto &[name, value] : own.counters)
        snap.setCounter("sharded." + name, value);
    for (const auto &[name, hist] : own.logHistograms)
        snap.setLogHistogram("sharded." + name, hist);
    snap.setGauge("sharded.threads", static_cast<double>(threadCount()));
    snap.setGauge("sharded.last_shards", static_cast<double>(nLastShards));
    snap.setGauge("sharded.spares", static_cast<double>(cfg.spareShards));
    snap.setGauge("sharded.quarantined_now",
                  static_cast<double>(quarantined));
    return snap;
}

} // namespace spm::service
