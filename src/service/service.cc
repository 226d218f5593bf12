#include "service/service.hh"

#include <algorithm>
#include <functional>
#include <utility>

#include "core/reference.hh"
#include "telemetry/telem.hh"
#include "util/logging.hh"

namespace spm::service
{

namespace
{

/** Watchdog slack: a window's beat budget is its feed plan times this. */
constexpr double windowBudgetMargin = 1.5;

/** Cross-check mismatches tolerated per rung before it falls. */
constexpr unsigned rungMismatchBudget = 1;

/**
 * The largest symbol in @p symbols, wild cards read as 0 when
 * @p skip_wild. A max-reduce with no early exit, so it vectorizes.
 */
std::uint32_t
maxSymbol(const std::vector<Symbol> &symbols, bool skip_wild)
{
    Symbol m = 0;
    for (const Symbol s : symbols)
        m = std::max(m, skip_wild && s == wildcardSymbol ? Symbol{0} : s);
    return m;
}

} // namespace

// --- FrontEnd ---------------------------------------------------------

FrontEnd::FrontEnd(BitWidth alphabet_bits, const char *label,
                   const char *dump_prefix, std::size_t stripes)
    : metrics(stripes), prefix(dump_prefix),
      rejectedCtr(metrics.counter("rejected")),
      observer(metrics, label, &exemplarStore)
{
    spm_assert(alphabet_bits >= 1 && alphabet_bits <= 16,
               "alphabet width must be in [1, 16] bits");
}

telem::Snapshot
FrontEnd::metricsSnapshot() const
{
    return metrics.snapshot();
}

std::string
FrontEnd::statsDump() const
{
    std::string out = metricsSnapshot().renderText(prefix);
    if (bus != nullptr)
        out += bus->statsDump();
    return out;
}

telem::StageClock
FrontEnd::startClock(std::uint64_t enqueued_ns)
{
    telem::StageClock clock;
    clock.start();
    if (clock.running() && enqueued_ns != 0)
        clock.note(telem::Stage::QueueWait, telem::nowNs() - enqueued_ns);
    return clock;
}

void
FrontEnd::observe(const telem::StageClock &clock, std::uint64_t id,
                  const char *reason, BitWidth bits,
                  std::span<const Symbol> pattern,
                  std::span<const Symbol> text)
{
    // Passed by reference, the case lambda needs no heap copy inside
    // the std::function: observing allocates nothing unless a case is
    // kept.
    const auto build = [&] { return telem::CaseRef(id, bits, pattern, text); };
    observer.observe(clock, id, reason != nullptr, reason, std::cref(build));
}

// --- StreamSession ----------------------------------------------------

StreamSession::StreamSession(MatchService &svc, MatchRequest req,
                             std::optional<Checkpoint> resume_from)
    : service(svc), request(std::move(req)),
      rungFaults(svc.ladder.size(), 0),
      clock(MatchService::startClock(request.enqueuedNs))
{
    response.id = request.id;
    if (resume_from) {
        // resume() admits the token (resumed, beats, resumes) once it
        // has checked it against the request.
        cp = std::move(*resume_from);
        telem::EventRecord resume = event(telem::EventKind::Resume);
        resume.beats = cp.beats;
        resume.digest = cp.digest();
        service.journalEvent(std::move(resume));
    } else {
        telem::EventRecord start = event(telem::EventKind::Start);
        start.length = request.text.size();
        start.count = request.pattern.size();
        service.journalEvent(std::move(start));
    }
}

void
StreamSession::fail(ErrorCode code, const std::string &detail)
{
    response.error = ServiceError::make(code, detail);
    finished = true;
    telem::EventRecord failed = event(telem::EventKind::Fail);
    failed.code = errorCodeName(code);
    failed.setDetail(detail);
    service.journalEvent(std::move(failed));
}

telem::EventRecord
StreamSession::event(telem::EventKind kind) const
{
    return {.kind = kind,
            .shard = service.cfg.shardId,
            .rung = static_cast<std::uint32_t>(cp.rung),
            .requestId = request.id,
            .offset = cp.offset,
            .beats = response.beats};
}

telem::CaseRef
StreamSession::windowCase() const
{
    return telem::CaseRef(request.id, service.cfg.alphabetBits,
                          request.pattern, window,
                          cp.offset - cp.tail.size());
}

Beat
StreamSession::windowBudget(std::size_t window_len) const
{
    // The behavioral feed plan finishes a window of n characters in
    // 2n + phi + cells + 4 beats; the bit-serial organization adds
    // one beat per character bit of drain. The margin covers both
    // and leaves the slack that separates "slow" from "wedged".
    const ServiceConfig &cfg = service.cfg;
    const double plan_beats = 2.0 * static_cast<double>(window_len) +
                              static_cast<double>(cfg.cells) +
                              static_cast<double>(request.pattern.size()) +
                              static_cast<double>(cfg.alphabetBits) + 8.0;
    return static_cast<Beat>(plan_beats * windowBudgetMargin);
}

void
StreamSession::prefetchFrom(ServiceBackend &backend, std::size_t rung)
{
    // The rung already holds the windows up to prefetchEnd; a re-run
    // of one of them is the rung's to recognise.
    if (rung == prefetchRung && cp.offset < prefetchEnd)
        return;
    // The next min(64, windows left) windows, cut exactly as step()
    // cuts them: the current one is the session's own buffer, each
    // later one re-presents the k-1 characters before its chunk.
    constexpr std::size_t maxWindows = 64;
    const std::size_t n = request.text.size();
    const std::size_t overlap =
        request.pattern.empty() ? 0 : request.pattern.size() - 1;
    const std::size_t chunk = service.cfg.chunkChars;
    upcoming.clear();
    upcoming.emplace_back(window);
    std::size_t off = cp.offset + std::min(chunk, n - cp.offset);
    while (off < n && upcoming.size() < maxWindows) {
        const std::size_t end = off + std::min(chunk, n - off);
        upcoming.emplace_back(request.text.data() + off - std::min(overlap, off),
                              request.text.data() + end);
        off = end;
    }
    backend.prefetch(upcoming, request.pattern);
    prefetchRung = rung;
    prefetchEnd = off;
}

bool
StreamSession::step()
{
    if (finished)
        return false;

    const std::size_t n = request.text.size();
    const std::size_t k = request.pattern.size();
    if (cp.offset >= n) {
        // Fully served: publish the accumulated stream.
        response.result = cp.emitted();
        response.backend = service.ladder.empty()
            ? "none"
            : service.ladder[cp.rung]->name();
        finished = true;
        service.journalEvent(event(telem::EventKind::Done));
        return false;
    }

    ServiceConfig &cfg = service.cfg;
    const std::size_t chunk =
        std::min(cfg.chunkChars, n - cp.offset);

    // The window re-presents the k-1 checkpointed tail characters so
    // the first result bit of this chunk sees its full substring. The
    // buffer is a session member: its capacity survives across chunks
    // so the steady state allocates nothing per chunk.
    window.assign(cp.tail.begin(), cp.tail.end());
    window.insert(window.end(),
                  request.text.begin() +
                      static_cast<std::ptrdiff_t>(cp.offset),
                  request.text.begin() +
                      static_cast<std::ptrdiff_t>(cp.offset + chunk));

    SPM_TSPAN_NAMED(chunk_span, "service.chunk", telem::cat::service,
                    response.beats, request.id);

    // Everything up to here -- queue pop, window assembly, budget
    // math -- is admission work.
    clock.mark(telem::Stage::Admit);

    bool last_fail_watchdog = false;
    std::size_t rung = cp.rung;
    while (rung < service.ladder.size()) {
        ServiceBackend &backend = *service.ladder[rung];
        if (!backend.supports(request.pattern)) {
            service.journalEvent(event(telem::EventKind::Skip));
            cp.rung = ++rung;
            continue;
        }

        Beat budget = windowBudget(window.size());
        if (request.deadlineBeats > 0) {
            if (response.beats >= request.deadlineBeats) {
                fail(ErrorCode::DeadlineExceeded,
                     "request deadline of " +
                         std::to_string(request.deadlineBeats) +
                         " beats exhausted at offset " +
                         std::to_string(cp.offset));
                return false;
            }
            budget = std::min(budget,
                              request.deadlineBeats - response.beats);
        }

        prefetchFrom(backend, rung);
        service.dog.arm(budget);
        WindowResult wr =
            backend.matchWindow(window, request.pattern, service.dog);
        response.beats += wr.beats;
        clock.mark(telem::Stage::Kernel);
        clock.addBeats(wr.beats);

        if (!wr.completed) {
            const telem::CaseRef here = windowCase();
            last_fail_watchdog = service.dog.tripped();
            if (last_fail_watchdog) {
                ++response.watchdogTrips;
                service.watchdogTripsCtr.add();
                telem::EventRecord trip =
                    event(telem::EventKind::WatchdogTrip);
                trip.code = errorCodeName(ErrorCode::DeadlineExceeded);
                trip.caseRef = here;
                trip.limit = budget;
                service.flight.trip("watchdog trip", std::move(trip));
                SPM_TINSTANT("service.watchdog_trip",
                             telem::cat::service, response.beats,
                             request.id);
            }
            telem::EventRecord cancelled = event(telem::EventKind::Cancel);
            cancelled.setDetail(wr.note);
            service.journalEvent(std::move(cancelled));
            ++response.degradations;
            service.degradationsCtr.add();
            telem::EventRecord fall =
                event(telem::EventKind::LadderTransition);
            fall.code = errorCodeName(last_fail_watchdog
                                          ? ErrorCode::DeadlineExceeded
                                          : ErrorCode::BackendFailed);
            fall.caseRef = here;
            service.flight.trip("ladder transition", std::move(fall));
            SPM_TINSTANT("service.ladder_fall", telem::cat::service,
                         response.beats, rung + 1);
            cp.rung = ++rung;
            continue;
        }

        if (cfg.crossCheck) {
            const BitVec expect =
                core::ReferenceMatcher().match(window, request.pattern);
            clock.mark(telem::Stage::CrossCheck);
            if (wr.bits != expect) {
                ++response.crossCheckFailures;
                service.crossCheckFailuresCtr.add();
                const unsigned faults = ++rungFaults[rung];
                telem::EventRecord mismatch =
                    event(telem::EventKind::CrossCheckMismatch);
                mismatch.count = faults;
                mismatch.limit = rungMismatchBudget;
                service.journalEvent(mismatch);
                mismatch.code = errorCodeName(ErrorCode::BackendFailed);
                mismatch.caseRef = windowCase();
                service.flight.record(mismatch);
                if (faults > rungMismatchBudget) {
                    last_fail_watchdog = false;
                    ++response.degradations;
                    service.degradationsCtr.add();
                    // The mismatch record carries the burned budget,
                    // which the fall's line reports.
                    mismatch.kind = telem::EventKind::LadderTransition;
                    service.flight.trip("ladder transition",
                                        std::move(mismatch));
                    SPM_TINSTANT("service.ladder_fall",
                                 telem::cat::service, response.beats,
                                 rung + 1);
                    cp.rung = ++rung;
                }
                // Within budget: re-run the same rung (a transient
                // clears on the re-run; a permanent fault burns the
                // budget and forces the fall).
                continue;
            }
        }

        // Commit: pace the chunk over the bus as one batched handoff
        // (parity checked end to end; same counters as the per-char
        // path), append the new result bits, cut a checkpoint.
        service.cfg.bus.transferChunk(request.text.data() + cp.offset,
                                      request.text.data() + cp.offset,
                                      chunk);
        const std::size_t skip = window.size() - chunk;
        cp.emit(wr.bits, skip, window.size());

        cp.offset += chunk;
        const std::size_t tail_len =
            std::min(k > 0 ? k - 1 : 0, cp.offset);
        cp.tail.assign(request.text.begin() +
                           static_cast<std::ptrdiff_t>(cp.offset -
                                                       tail_len),
                       request.text.begin() +
                           static_cast<std::ptrdiff_t>(cp.offset));
        cp.rung = rung;
        cp.beats = response.beats;
        ++response.chunks;
        service.checkpointsCtr.add();
        SPM_THIST(service.chunkBeatsHist,
                  static_cast<double>(wr.beats));
        chunk_span.setBeat(response.beats);
        telem::EventRecord commit = event(telem::EventKind::ChunkCommit);
        service.flight.record(commit);
        clock.mark(telem::Stage::Commit);
        if (service.cfg.journalEnabled) {
            commit.length = n;
            commit.beats = wr.beats;
            commit.digest = cp.digest();
            service.log.record(std::move(commit));
            clock.mark(telem::Stage::Journal);
        }
        // Even when this was the last chunk, one more step() call
        // publishes the response; callers loop on the return value.
        return true;
    }

    // Every rung skipped, cancelled or out of fault budget.
    if (last_fail_watchdog)
        fail(ErrorCode::DeadlineExceeded,
             "watchdog cancelled every remaining rung at offset " +
                 std::to_string(cp.offset));
    else
        fail(ErrorCode::BackendFailed,
             "degradation ladder exhausted at offset " +
                 std::to_string(cp.offset));
    return false;
}

MatchResponse
StreamSession::finish()
{
    if (!finished) {
        if (cp.offset >= request.text.size()) {
            // All chunks done; step() once more to publish.
            step();
        } else {
            cancel("finish() before completion");
        }
    }
    if (!observed) {
        observed = true;
        service.servedCtr.add();
        if (response.ok())
            service.completedCtr.add();
        else
            service.failedCtr.add();
        // Watchdog trips and ladder falls force-retain their trace;
        // the whole request replays as one conformance case.
        const char *reason = nullptr;
        if (response.watchdogTrips > 0)
            reason = "watchdog trip";
        else if (response.crossCheckFailures > 0)
            reason = "cross-check mismatch";
        else if (response.degradations > 0)
            reason = "ladder fall";
        service.observe(clock, request.id, reason, service.cfg.alphabetBits,
                        request.pattern, request.text);
    }
    return response;
}

void
StreamSession::cancel(const std::string &reason)
{
    if (finished)
        return;
    fail(ErrorCode::Cancelled, reason);
}

// --- MatchService -----------------------------------------------------

MatchService::MatchService(ServiceConfig config)
    : MatchService(std::move(config), {})
{
}

MatchService::MatchService(
    ServiceConfig config,
    std::vector<std::unique_ptr<ServiceBackend>> ladder_rungs)
    : FrontEnd(config.alphabetBits, "stream", "service."),
      cfg(std::move(config)), ladder(std::move(ladder_rungs)),
      queue(cfg.queueCapacity, cfg.policy),
      servedCtr(metrics.counter("served")),
      completedCtr(metrics.counter("completed")),
      failedCtr(metrics.counter("failed")),
      degradationsCtr(metrics.counter("degradations")),
      watchdogTripsCtr(metrics.counter("watchdogTrips")),
      crossCheckFailuresCtr(metrics.counter("crossCheckFailures")),
      checkpointsCtr(metrics.counter("checkpoints")),
      resumesCtr(metrics.counter("resumes")),
      queueDepthGauge(metrics.gauge("queue_depth")),
      chunkBeatsHist(metrics.logHistogram("chunk_beats"))
{
    spm_assert(cfg.cells > 0, "service needs at least one cell");
    spm_assert(cfg.chunkChars > 0, "service needs a nonzero chunk size");
    bus = &cfg.bus;
    if (ladder.empty())
        ladder = makeDefaultLadder(cfg);
    spm_assert(!ladder.empty(), "service needs at least one backend");
    log.setRungNames(ladderNames());
    flight.setRungNames(ladderNames());
}

void
MatchService::journalEvent(telem::EventRecord ev)
{
    if (cfg.journalEnabled)
        log.record(std::move(ev));
}

std::vector<std::string>
MatchService::ladderNames() const
{
    std::vector<std::string> names;
    names.reserve(ladder.size());
    for (const auto &b : ladder)
        names.push_back(b->name());
    return names;
}

std::optional<ServiceError>
MatchService::validate(const MatchRequest &req) const
{
    return validateRequest(cfg, req);
}

std::optional<ServiceError>
validatePattern(const FrontEndConfig &cfg, const std::vector<Symbol> &pattern,
                const std::string &label)
{
    if (pattern.empty())
        return ServiceError::make(ErrorCode::InvalidPattern,
                                  "empty " + label);
    if (pattern.size() > cfg.maxPatternLen)
        return ServiceError::make(
            ErrorCode::OversizedRequest,
            label + " of " + std::to_string(pattern.size()) +
                " exceeds limit " + std::to_string(cfg.maxPatternLen));
    // 32-bit: at 16 alphabet bits a Symbol-typed sigma would wrap to 0.
    const std::uint32_t sigma = std::uint32_t{1} << cfg.alphabetBits;
    // One branch-free pass (wild cards count as 0); the rescan that
    // names the first offender runs only on failure.
    if (maxSymbol(pattern, true) < sigma)
        return std::nullopt;
    for (std::size_t i = 0; i < pattern.size(); ++i)
        if (pattern[i] != wildcardSymbol && pattern[i] >= sigma)
            return ServiceError::make(
                ErrorCode::AlphabetOverflow,
                label + "[" + std::to_string(i) + "]=" +
                    std::to_string(pattern[i]) + " outside alphabet of " +
                    std::to_string(sigma));
    return std::nullopt;
}

std::optional<ServiceError>
validateText(const FrontEndConfig &cfg, const std::vector<Symbol> &text,
             std::uint64_t already_seen, const std::string &label)
{
    if (already_seen + text.size() > cfg.maxTextLen)
        return ServiceError::make(
            ErrorCode::OversizedRequest,
            label + " of " + std::to_string(already_seen + text.size()) +
                " chars exceeds limit " + std::to_string(cfg.maxTextLen));
    const std::uint32_t sigma = std::uint32_t{1} << cfg.alphabetBits;
    // The wild card is a pattern symbol; at 16 bits it is inside sigma.
    const std::uint32_t limit = std::min<std::uint32_t>(sigma, wildcardSymbol);
    if (maxSymbol(text, false) < limit)
        return std::nullopt;
    for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] >= limit)
            return ServiceError::make(
                ErrorCode::AlphabetOverflow,
                label + "[" + std::to_string(i) + "]=" +
                    std::to_string(text[i]) + " outside alphabet of " +
                    std::to_string(sigma));
    return std::nullopt;
}

std::optional<ServiceError>
validateRequest(const FrontEndConfig &cfg, const MatchRequest &req)
{
    if (auto err = validatePattern(cfg, req.pattern))
        return err;
    return validateText(cfg, req.text);
}

StreamSession
MatchService::startSession(const MatchRequest &req)
{
    StreamSession session(*this, req, std::nullopt);
    if (auto err = validate(req)) {
        reject(*err);
        session.fail(err->code, err->detail);
    }
    return session;
}

MatchResponse
MatchService::serve(const MatchRequest &req)
{
    StreamSession session = startSession(req);
    while (session.step()) {
    }
    return session.finish();
}

MatchResponse
MatchService::resume(const MatchRequest &req, const Checkpoint &from)
{
    StreamSession session(*this, req, from);
    std::optional<ServiceError> err = validate(req);
    const std::size_t k = req.pattern.size();
    const std::size_t want_tail = std::min(k > 0 ? k - 1 : 0, from.offset);
    if (!err && (from.offset > req.text.size() ||
                 from.emitted().size() != from.offset ||
                 from.tail.size() != want_tail || from.rung >= ladder.size()))
        err = ServiceError::make(
            ErrorCode::InvalidCheckpoint,
            "checkpoint inconsistent with request (offset " +
                std::to_string(from.offset) + ", " +
                std::to_string(from.emitted().size()) + " emitted, tail " +
                std::to_string(from.tail.size()) + ")");
    if (err) {
        reject(*err);
        session.fail(err->code, err->detail);
    } else {
        session.response.resumed = true;
        session.response.beats = from.beats;
        resumesCtr.add();
    }
    while (session.step()) {
    }
    return session.finish();
}

MatchService::SubmitResult
MatchService::submit(MatchRequest req)
{
    SubmitResult out;
    if (auto err = validate(req)) {
        // Invalid requests never consume queue space; the rejection
        // is typed and counted just like an admission rejection.
        out.error = reject(*err);
        telem::EventRecord rejected{.kind = telem::EventKind::Reject,
                                    .requestId = req.id};
        rejected.setDetail(err->toString());
        journalEvent(std::move(rejected));
        return out;
    }

    if (telem::samplingEnabled() && req.enqueuedNs == 0)
        req.enqueuedNs = telem::nowNs();
    for (;;) {
        Admission adm = queue.offer(std::move(req));
        if (adm.shed) {
            // The displaced request is answered, never dropped.
            MatchResponse shed_resp;
            shed_resp.id = adm.shed->id;
            shed_resp.error = ServiceError::make(
                ErrorCode::Shed, "evicted under shed-oldest policy");
            journalEvent({.kind = telem::EventKind::Shed,
                          .requestId = shed_resp.id});
            servedCtr.add();
            failedCtr.add();
            out.shedResponse = std::move(shed_resp);
        }
        if (adm.admitted) {
            out.accepted = true;
            queueDepthGauge.set(static_cast<double>(queue.size()));
            return out;
        }
        if (adm.mustDrain) {
            // Block policy: the producer stalls while the service
            // drains the queue head, then the offer is retried with
            // the bounced request.
            spm_assert(adm.bounced.has_value(),
                       "blocked offer must bounce the request");
            if (auto head = queue.pop()) {
                queueDepthGauge.set(static_cast<double>(queue.size()));
                out.drained.push_back(serve(*head));
            }
            req = std::move(*adm.bounced);
            continue;
        }
        out.error = reject(adm.error);
        return out;
    }
}

std::vector<MatchResponse>
MatchService::drain()
{
    std::vector<MatchResponse> out;
    while (auto req = queue.pop()) {
        queueDepthGauge.set(static_cast<double>(queue.size()));
        out.push_back(serve(*req));
    }
    return out;
}

telem::Snapshot
MatchService::metricsSnapshot() const
{
    telem::Snapshot snap = metrics.snapshot();
    snap.setCounter("queue.offered", queue.offered());
    snap.setCounter("queue.admitted", queue.admitted());
    snap.setCounter("queue.rejected", queue.rejected());
    snap.setCounter("queue.shed", queue.shedCount());
    snap.setCounter("queue.blockedOffers", queue.blockedOffers());
    return snap;
}

std::vector<std::unique_ptr<ServiceBackend>>
makeDefaultLadder(const ServiceConfig &config)
{
    std::vector<std::unique_ptr<ServiceBackend>> ladder;

    ladder.push_back(
        std::make_unique<GateBackend>(config.cells, config.alphabetBits));
    ladder.push_back(std::make_unique<BehavioralBackend>(config.cells));
    ladder.push_back(std::make_unique<SoftwareBackend>());
    return ladder;
}

} // namespace spm::service
