#include "service/dictserve.hh"

#include <utility>

#include "telemetry/event.hh"
#include "telemetry/telem.hh"

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
    : FrontEnd(config.base.alphabetBits, "dict", "dict."),
      cfg(std::move(config)),
      dictionariesCtr(metrics.counter("dictionaries")),
      chunksCtr(metrics.counter("chunks")),
      chunkCharsCtr(metrics.counter("chunkChars")),
      hitsCtr(metrics.counter("hits")),
      dictSizeHist(metrics.logHistogram("dict_size")),
      hitsPerChunkHist(metrics.logHistogram("hits_per_chunk")),
      planesPerSweepHist(metrics.logHistogram("planes_per_sweep"))
{
    bus = &cfg.base.bus;
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
        if (validatePattern(cfg.base, dict[i])) // label only on failure
            return DictError::make(*validatePattern(
                cfg.base, dict[i], "dict[" + std::to_string(i) + "]"), i);
    return DictError::okValue();
}

DictSession
DictMatchService::openSession(multipattern::DictPatterns dict,
                              DictError &err)
{
    DictSession session;
    err = validateDict(dict);
    if (!err.ok()) {
        reject(err.error);
        return session;
    }
    session.dict = std::move(dict);
    dictionariesCtr.add();
    SPM_THIST(dictSizeHist, static_cast<double>(session.dict.size()));
    return session;
}

DictMatchService::ChunkResult
DictMatchService::feedChunk(DictSession &session,
                            std::span<const Symbol> chunk,
                            std::uint64_t enqueued_ns)
{
    ChunkResult res;
    if (!session.open()) {
        res.error = DictError::make(reject(ServiceError::make(
            ErrorCode::InvalidDictionary, "session was never opened")));
        return res;
    }

    telem::StageClock clock = startClock(enqueued_ns, session.chunksFed + 1);

    if (auto verr =
            validateText(cfg.base, chunk, session.stream.seen, "chunk")) {
        res.error = DictError::make(reject(*verr));
        return res;
    }

    // Charge every admitted character through the host bus model
    // before the kernel sees it, like the sibling front ends.
    cfg.base.bus.transferChunk(chunk.size());

    // Feeding replaces the carried tail that the check reads.
    if (cfg.base.crossCheck)
        checkText = session.stream.tail;
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
    // The steady-rate contract: one text character per beat.
    clock.addBeats(static_cast<Beat>(chunk.size()));
    clock.mark(telem::Stage::Kernel);

    if (cfg.base.crossCheck) {
        const std::size_t skip = checkText.size();
        checkText.insert(checkText.end(), chunk.begin(), chunk.end());
        bool ok = true;
        for (std::size_t p = 0; p < session.dict.size() && ok; ++p)
            ok = verify(checkText, session.dict[p], res.hits.bits[p], skip);
        if (!countCheck(ok))
            res.error = DictError::make(ServiceError::make(
                ErrorCode::BackendFailed,
                "cross-check caught a dictionary mismatch in this chunk"));
        clock.mark(telem::Stage::CrossCheck);
    }
    clock.mark(telem::Stage::Commit);
    observe(clock, session.chunksFed,
            res.ok() ? nullptr : "cross-check mismatch",
            cfg.base.alphabetBits, session.dict[0], chunk);
    return res;
}

} // namespace spm::service
