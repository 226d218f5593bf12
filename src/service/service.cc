#include "service/service.hh"

#include <algorithm>
#include <functional>
#include <utility>

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
 * The OR of @p symbols, wild cards read as 0 when @p skip_wild: below
 * 16 bits it is < sigma (a power of two) exactly when each symbol is.
 */
Symbol
orSymbols(std::span<const Symbol> symbols, bool skip_wild)
{
    Symbol m = 0;
    for (const Symbol s : symbols)
        m |= skip_wild && s == wildcardSymbol ? Symbol{0} : s;
    return m;
}

} // namespace

// --- FrontEnd ---------------------------------------------------------

FrontEnd::FrontEnd(BitWidth alphabet_bits, const char *label,
                   const char *dump_prefix, std::size_t stripes)
    : metrics(stripes), prefix(dump_prefix),
      rejectedCtr(metrics.counter("rejected")),
      crossChecksCtr(metrics.counter("crossChecks")),
      crossCheckFailuresCtr(metrics.counter("crossCheckFailures")),
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
FrontEnd::startClock(std::uint64_t enqueued_ns, std::uint64_t trace_id)
{
    telem::StageClock clock;
    clock.start(trace_id);
    if (clock.running() && enqueued_ns != 0)
        clock.note(telem::Stage::QueueWait, telem::nowNs() - enqueued_ns);
    return clock;
}

bool
FrontEnd::verify(std::span<const Symbol> text, std::span<const Symbol> pattern,
                 const BitVec &bits, std::size_t skip)
{
    if (!checker)
        checker =
            std::make_unique<core::SimdParallelMatcher>(core::SimdIsa::Scalar);
    checkBits.clear();
    checkBits.append(checker->matchPacked(text, pattern), skip,
                     text.size() - skip);
    return checkBits == bits;
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

StreamSession::StreamSession(MatchService &svc, const MatchRequest &req,
                             std::span<const Symbol> piece,
                             const Checkpoint *resume_from)
    : service(svc), requestId(req.id), text(piece), pattern(req.pattern),
      deadlineBeats(req.deadlineBeats), rungFaults(svc.ladder.size(), 0),
      clock(MatchService::startClock(req.enqueuedNs, req.id))
{
    response.id = req.id;
    if (resume_from) {
        // resume() admits the token (resumed, beats, resumes) once it
        // has checked it against the request; a token it rejects may
        // point past the text.
        cp = *resume_from;
        telem::EventRecord resume = event(telem::EventKind::Resume);
        resume.beats = cp.beats;
        resume.digest = cp.digest(tailAt(std::min(cp.offset, text.size())));
        service.journalEvent(std::move(resume));
    } else {
        telem::EventRecord start = event(telem::EventKind::Start);
        start.length = text.size();
        start.count = pattern.size();
        service.journalEvent(std::move(start));
    }
    cp.reserve(text.size());
}

MatchResponse
StreamSession::run()
{
    while (step()) {
    }
    conclude();
    // The session ends here; its response moves out whole.
    return std::move(response);
}

void
StreamSession::fail(ErrorCode code, const std::string &detail)
{
    response.error = ServiceError::make(code, detail);
    finished = true;
    flushBeatRun();
    telem::EventRecord failed = event(telem::EventKind::Fail);
    failed.code = errorCodeName(code);
    failed.setDetail(detail);
    service.journalEvent(std::move(failed));
}

void
StreamSession::flushBeatRun()
{
    if (runChunks != 0)
        SPM_THIST(service.chunkBeatsHist, static_cast<double>(runBeats),
                  runChunks);
    runChunks = 0;
}

telem::EventRecord
StreamSession::event(telem::EventKind kind) const
{
    return {.kind = kind,
            .shard = service.cfg.shardId,
            .rung = static_cast<std::uint32_t>(cp.rung),
            .requestId = requestId,
            .offset = cp.offset,
            .beats = response.beats};
}

std::span<const Symbol>
StreamSession::tailAt(std::size_t to) const
{
    const std::size_t lead =
        std::min(pattern.empty() ? 0 : pattern.size() - 1, to);
    return text.subspan(to - lead, lead);
}

std::span<const Symbol>
StreamSession::windowAt(std::size_t from) const
{
    const std::size_t lead = tailAt(from).size();
    const std::size_t chunk =
        std::min(service.cfg.chunkChars, text.size() - from);
    return text.subspan(from - lead, lead + chunk);
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
                              static_cast<double>(pattern.size()) +
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
    // cuts them.
    const std::size_t n = text.size();
    std::size_t count = 0;
    std::size_t off = cp.offset;
    for (; off < n && count < upcoming.size(); ++count) {
        upcoming[count] = windowAt(off);
        off += std::min(service.cfg.chunkChars, n - off);
    }
    backend.prefetch(std::span(upcoming).first(count), pattern);
    prefetchRung = rung;
    prefetchEnd = off;
}

bool
StreamSession::step()
{
    if (finished)
        return false;

    const std::size_t n = text.size();
    if (cp.offset >= n) {
        // Fully served: the accumulated stream becomes the response.
        response.result = cp.takeEmitted();
        response.backend = service.ladder[cp.rung]->internedName();
        finished = true;
        flushBeatRun();
        service.journalEvent(event(telem::EventKind::Done));
        return false;
    }

    ServiceConfig &cfg = service.cfg;
    const std::size_t chunk =
        std::min(cfg.chunkChars, n - cp.offset);

    // The window re-presents the k-1 characters before the chunk so
    // the first result bit of this chunk sees its full substring.
    const std::span<const Symbol> window = windowAt(cp.offset);
    // The window as a case (the flight recorder's handle).
    const auto windowCase = [&] {
        return telem::CaseRef(requestId, cfg.alphabetBits, pattern, window,
                              cp.offset + chunk - window.size());
    };

    // Everything up to here -- queue pop, window assembly, budget
    // math -- is admission work.
    clock.mark(telem::Stage::Admit);

    bool last_fail_watchdog = false;
    std::size_t rung = cp.rung;
    while (rung < service.ladder.size()) {
        ServiceBackend &backend = *service.ladder[rung];
        if (!backend.supports(pattern)) {
            service.journalEvent(event(telem::EventKind::Skip));
            cp.rung = ++rung;
            continue;
        }

        Beat budget = windowBudget(window.size());
        if (deadlineBeats > 0) {
            if (response.beats >= deadlineBeats) {
                fail(ErrorCode::DeadlineExceeded,
                     "request deadline of " +
                         std::to_string(deadlineBeats) +
                         " beats exhausted at offset " +
                         std::to_string(cp.offset));
                return false;
            }
            budget = std::min(budget, deadlineBeats - response.beats);
        }

        prefetchFrom(backend, rung);
        service.dog.arm(budget);
        WindowResult wr =
            backend.matchWindow(window, pattern, service.dog);
        response.beats += wr.beats;
        clock.addBeats(wr.beats);
        clock.mark(telem::Stage::Kernel);

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
            cp.rung = ++rung;
            continue;
        }

        if (cfg.crossCheck) {
            const bool ok =
                service.countCheck(service.verify(window, pattern, wr.bits));
            clock.mark(telem::Stage::CrossCheck);
            if (!ok) {
                ++response.crossCheckFailures;
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
                    cp.rung = ++rung;
                }
                // Within budget: re-run the same rung (a transient
                // clears on the re-run; a permanent fault burns the
                // budget and forces the fall).
                continue;
            }
        }

        // Commit: charge the chunk to the bus, append the new result
        // bits, cut a checkpoint.
        service.cfg.bus.transferChunk(chunk);
        const std::size_t skip = window.size() - chunk;
        cp.emit(wr.bits, skip, window.size());

        cp.offset += chunk;
        cp.rung = rung;
        cp.beats = response.beats;
        ++response.chunks;
        service.checkpointsCtr.add();
        if (wr.beats != runBeats)
            flushBeatRun();
        runBeats = wr.beats;
        ++runChunks;
        telem::EventRecord commit = event(telem::EventKind::ChunkCommit);
        service.flight.record(commit);
        clock.mark(telem::Stage::Commit);
        if (service.cfg.journalEnabled) {
            commit.length = n;
            commit.beats = wr.beats;
            commit.digest = cp.digest(tailAt(cp.offset));
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
    conclude();
    return response;
}

void
StreamSession::conclude()
{
    if (!finished) {
        if (cp.offset >= text.size()) {
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
        service.observe(clock, requestId, reason, service.cfg.alphabetBits,
                        pattern, text);
    }
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
validatePattern(const FrontEndConfig &cfg, std::span<const Symbol> pattern,
                std::string_view label)
{
    if (pattern.empty())
        return ServiceError::make(ErrorCode::InvalidPattern,
                                  "empty " + std::string(label));
    if (pattern.size() > cfg.maxPatternLen)
        return ServiceError::make(
            ErrorCode::OversizedRequest,
            std::string(label) + " of " + std::to_string(pattern.size()) +
                " exceeds limit " + std::to_string(cfg.maxPatternLen));
    // 32-bit: at 16 alphabet bits a Symbol-typed sigma would wrap to 0.
    const std::uint32_t sigma = std::uint32_t{1} << cfg.alphabetBits;
    // One branch-free pass (wild cards count as 0); the rescan that
    // names the first offender runs only on failure.
    if (orSymbols(pattern, true) < sigma)
        return std::nullopt;
    for (std::size_t i = 0; i < pattern.size(); ++i)
        if (pattern[i] != wildcardSymbol && pattern[i] >= sigma)
            return ServiceError::make(
                ErrorCode::AlphabetOverflow,
                std::string(label) + "[" + std::to_string(i) + "]=" +
                    std::to_string(pattern[i]) + " outside alphabet of " +
                    std::to_string(sigma));
    return std::nullopt;
}

std::optional<ServiceError>
validateText(const FrontEndConfig &cfg, std::span<const Symbol> text,
             std::uint64_t already_seen, std::string_view label)
{
    if (already_seen + text.size() > cfg.maxTextLen)
        return ServiceError::make(
            ErrorCode::OversizedRequest,
            std::string(label) + " of " +
                std::to_string(already_seen + text.size()) +
                " chars exceeds limit " + std::to_string(cfg.maxTextLen));
    if (textOrAdmits(cfg, orSymbols(text, false)))
        return std::nullopt;
    const std::uint32_t sigma = std::uint32_t{1} << cfg.alphabetBits;
    const std::uint32_t limit = std::min<std::uint32_t>(sigma, wildcardSymbol);
    for (std::size_t i = 0; i < text.size(); ++i)
        if (text[i] >= limit)
            return ServiceError::make(
                ErrorCode::AlphabetOverflow,
                std::string(label) + "[" + std::to_string(i) + "]=" +
                    std::to_string(text[i]) + " outside alphabet of " +
                    std::to_string(sigma));
    return std::nullopt;
}

bool
textOrAdmits(const FrontEndConfig &cfg, Symbol text_or)
{
    // The wild card is a pattern symbol; at 16 bits it is inside sigma.
    // There the OR only filters (0xFF00 | 0x00FF is the wild card), and
    // the rescan decides.
    const std::uint32_t sigma = std::uint32_t{1} << cfg.alphabetBits;
    return text_or < std::min<std::uint32_t>(sigma, wildcardSymbol);
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
    StreamSession session(*this, req, req.text);
    if (auto err = validate(req)) {
        reject(*err);
        session.fail(err->code, err->detail);
    }
    return session;
}

MatchResponse
MatchService::serve(const MatchRequest &req)
{
    return startSession(req).run();
}

MatchResponse
MatchService::resume(const MatchRequest &req, const Checkpoint &from)
{
    StreamSession session(*this, req, req.text, &from);
    std::optional<ServiceError> err = validate(req);
    if (!err && (from.offset > req.text.size() ||
                 from.emitted().size() != from.offset ||
                 from.rung >= ladder.size()))
        err = ServiceError::make(
            ErrorCode::InvalidCheckpoint,
            "checkpoint inconsistent with request (offset " +
                std::to_string(from.offset) + ", " +
                std::to_string(from.emitted().size()) + " emitted)");
    if (err) {
        reject(*err);
        session.fail(err->code, err->detail);
    } else {
        session.response.resumed = true;
        session.response.beats = from.beats;
        resumesCtr.add();
    }
    return session.run();
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
    snap.setCounter("journal_dropped", log.dropped());
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
