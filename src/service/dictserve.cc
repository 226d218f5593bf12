#include "service/dictserve.hh"

#include <utility>

#include "telemetry/event.hh"
#include "telemetry/telem.hh"
#include "util/logging.hh"

namespace spm::service
{

namespace
{

/** Most dictionary members admitted per session. */
constexpr std::size_t dictMemberLimit = 4096;

} // namespace

std::string
DictError::toString() const
{
    if (patternIndex == noPattern)
        return error.toString();
    return "dict[" + std::to_string(patternIndex) +
           "]: " + error.toString();
}

DictMatchService::DictMatchService(DictServiceConfig config)
    : cfg(std::move(config)),
      dictionariesCtr(metrics.counter("dictionaries")),
      chunksCtr(metrics.counter("chunks")),
      chunkCharsCtr(metrics.counter("chunkChars")),
      hitsCtr(metrics.counter("hits")),
      rejectedCtr(metrics.counter("rejected")),
      crossChecksCtr(metrics.counter("crossChecks")),
      crossCheckFailuresCtr(metrics.counter("crossCheckFailures")),
      dictSizeHist(metrics.logHistogram("dict_size")),
      hitsPerChunkHist(metrics.logHistogram("hits_per_chunk")),
      planesPerSweepHist(metrics.logHistogram("planes_per_sweep")),
      reqObs(metrics, "dict", &exemplarStore)
{
    spm_assert(cfg.base.alphabetBits >= 1 && cfg.base.alphabetBits <= 16,
               "alphabet width must be in [1, 16] bits");
}

DictError
DictMatchService::validateDict(const multipattern::DictPatterns &dict) const
{
    if (dict.empty())
        return DictError::make(ServiceError::make(
            ErrorCode::InvalidDictionary, "empty dictionary"));
    if (dict.size() > dictMemberLimit)
        return DictError::make(ServiceError::make(
            ErrorCode::InvalidDictionary,
            "dictionary of " + std::to_string(dict.size()) +
                " members exceeds limit " +
                std::to_string(dictMemberLimit)));
    // Every member obeys the shared single-pattern admission rules
    // (service.hh): non-empty, within maxPatternLen, alphabet-clean.
    for (std::size_t i = 0; i < dict.size(); ++i)
        if (auto err = validatePattern(cfg.base, dict[i],
                                       "dict[" + std::to_string(i) + "]"))
            return DictError::make(*err, i);
    return DictError::okValue();
}

DictSession
DictMatchService::openSession(multipattern::DictPatterns dict,
                              DictError &err)
{
    DictSession session;
    err = validateDict(dict);
    if (!err.ok()) {
        rejectedCtr.add();
        return session;
    }
    session.dict = std::move(dict);
    dictionariesCtr.add();
    SPM_THIST(dictSizeHist, static_cast<double>(session.dict.size()));
    return session;
}

DictMatchService::ChunkResult
DictMatchService::feedChunk(DictSession &session,
                            const std::vector<Symbol> &chunk,
                            std::uint64_t enqueued_ns)
{
    ChunkResult res;
    if (!session.open()) {
        res.error = DictError::make(ServiceError::make(
            ErrorCode::InvalidDictionary, "session was never opened"));
        return res;
    }

    telem::StageClock clock;
    clock.start();
    if (clock.running() && enqueued_ns != 0)
        clock.note(telem::Stage::QueueWait, telem::nowNs() - enqueued_ns);

    if (auto verr =
            validateText(cfg.base, chunk, session.stream.seen, "chunk")) {
        rejectedCtr.add();
        res.error = DictError::make(*verr);
        return res;
    }

    // Charge every admitted character through the host bus model
    // before the kernel sees it, like the sibling front ends.
    cfg.base.bus.transferChunk(chunk.data(), chunk.data(), chunk.size());

    const bool audit = cfg.crossCheckEvery != 0 &&
                       session.chunksFed % cfg.crossCheckEvery == 0;
    std::vector<Symbol> beforeTail;
    if (audit)
        beforeTail = session.stream.tail;
    clock.mark(telem::Stage::Admit);

    res.hits = multipattern::feedDictChunk(engine, session.stream, chunk,
                                           session.dict);
    res.totalHits = engine.lastHits();
    ++session.chunksFed;
    chunksCtr.add();
    chunkCharsCtr.add(chunk.size());
    hitsCtr.add(res.totalHits);
    SPM_THIST(hitsPerChunkHist, static_cast<double>(res.totalHits));
    SPM_THIST(planesPerSweepHist,
              static_cast<double>(engine.lastPlanes()));
    clock.mark(telem::Stage::Kernel);

    if (audit) {
        crossChecksCtr.add();
        multipattern::NaiveDictMatcher naive;
        std::vector<Symbol> window = std::move(beforeTail);
        window.insert(window.end(), chunk.begin(), chunk.end());
        const multipattern::DictHits expect =
            naive.matchAll(window, session.dict);
        const std::size_t skip = window.size() - chunk.size();
        bool bad = false;
        for (std::size_t p = 0; p < session.dict.size() && !bad; ++p)
            for (std::size_t c = 0; c < chunk.size(); ++c)
                if (res.hits.bits[p][c] != expect.bits[p][skip + c]) {
                    bad = true;
                    break;
                }
        if (bad) {
            crossCheckFailuresCtr.add();
            res.error = DictError::make(ServiceError::make(
                ErrorCode::BackendFailed,
                "cross-check caught a dictionary-kernel mismatch in "
                "this chunk"));
        }
        clock.mark(telem::Stage::CrossCheck);
    }
    clock.mark(telem::Stage::Commit);
    // The steady-rate contract: one text character per beat.
    clock.addBeats(static_cast<Beat>(chunk.size()));
    reqObs.observe(clock, session.chunksFed, !res.ok(),
                   "cross-check mismatch", [&] {
                       return telem::CaseRef(session.chunksFed,
                                             cfg.base.alphabetBits,
                                             session.dict[0], chunk);
                   });
    return res;
}

DictMatchService::DictMatchResult
DictMatchService::matchDict(const std::vector<Symbol> &text,
                            const multipattern::DictPatterns &dict)
{
    DictMatchResult res;
    DictError err;
    DictSession session = openSession(dict, err);
    if (!err.ok()) {
        res.error = err;
        return res;
    }
    ChunkResult chunk = feedChunk(session, text);
    res.error = chunk.error;
    res.hits = std::move(chunk.hits);
    res.totalHits = chunk.totalHits;
    return res;
}

telem::Snapshot
DictMatchService::metricsSnapshot() const
{
    return metrics.snapshot();
}

std::string
DictMatchService::statsDump() const
{
    return metricsSnapshot().renderText("dict.") + cfg.base.bus.statsDump();
}

} // namespace spm::service
