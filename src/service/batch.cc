#include "service/batch.hh"

#include <unordered_map>
#include <utility>

#include "core/reference.hh"
#include "telemetry/event.hh"
#include "telemetry/telem.hh"

namespace spm::service
{

namespace
{

/** Most streams admitted into one serveBatch() call. */
constexpr std::size_t batchStreamLimit = 4096;

/** FNV-1a over a pattern's symbols, for grouping by pattern. */
struct PatternHash
{
    std::size_t operator()(const std::vector<Symbol> *p) const
    {
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (const Symbol s : *p)
            h = (h ^ s) * 0x100000001b3ull;
        return static_cast<std::size_t>(h);
    }
};

struct PatternEq
{
    bool operator()(const std::vector<Symbol> *a,
                    const std::vector<Symbol> *b) const
    {
        return *a == *b;
    }
};

} // namespace

BatchMatchService::BatchMatchService(BatchServiceConfig config)
    : FrontEnd(config.base.alphabetBits, "batch", "batch."),
      cfg(std::move(config)),
      backendName("batch+" + engine.kernel().name()),
      batchesCtr(metrics.counter("batches")),
      streamsCtr(metrics.counter("streams")),
      streamCharsCtr(metrics.counter("streamChars")),
      kernelPassesCtr(metrics.counter("kernelPasses")),
      crossChecksCtr(metrics.counter("crossChecks")),
      crossCheckFailuresCtr(metrics.counter("crossCheckFailures")),
      batchWidthHist(metrics.logHistogram("batch_width"))
{
    bus = &cfg.base.bus;
}

std::vector<std::vector<bool>>
BatchMatchService::runPass(
    const std::vector<const std::vector<Symbol> *> &texts,
    const std::vector<Symbol> &pattern, bool &checked,
    std::uint64_t &mismatches, telem::StageClock &clock)
{
    const std::uint64_t pass = kernelPassesCtr.value();
    checked = cfg.crossCheckEvery != 0 &&
              pass % cfg.crossCheckEvery == 0;

    auto bits = engine.matchMany(texts, pattern);
    kernelPassesCtr.add();
    clock.mark(telem::Stage::Kernel);
    SPM_THIST(batchWidthHist,
              static_cast<double>(engine.lastBatchWidth()));

    mismatches = 0;
    if (checked) {
        crossChecksCtr.add();
        core::ReferenceMatcher ref;
        for (std::size_t i = 0; i < texts.size(); ++i)
            if (bits[i] != ref.match(*texts[i], pattern))
                ++mismatches;
        crossCheckFailuresCtr.add(mismatches);
        clock.mark(telem::Stage::CrossCheck);
    }
    return bits;
}

std::vector<MatchResponse>
BatchMatchService::serveBatch(const std::vector<MatchRequest> &batch)
{
    batchesCtr.add();
    std::vector<MatchResponse> out(batch.size());

    // One stage clock for the whole call: the kernel pass is shared,
    // so per-pass attribution is the honest granularity. Per-member
    // queue waits feed the stage histogram directly (noteQueueWait).
    telem::StageClock clock = startClock(0);

    // Validate independently; collect the admissible requests.
    std::vector<std::size_t> admitted;
    admitted.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        out[i].id = batch[i].id;
        if (admitted.size() >= batchStreamLimit) {
            out[i].error = reject(ServiceError::make(
                ErrorCode::QueueOverflow,
                "batch width limit of " +
                    std::to_string(batchStreamLimit) + " streams"));
            continue;
        }
        if (auto err = validateRequest(cfg.base, batch[i])) {
            out[i].error = reject(*err);
            continue;
        }
        if (clock.running() && batch[i].enqueuedNs != 0)
            observer.noteQueueWait(telem::nowNs() - batch[i].enqueuedNs);
        admitted.push_back(i);
    }
    streamsCtr.add(admitted.size());
    clock.mark(telem::Stage::Admit);

    // Group the admitted requests by pattern in one pass: groups in
    // order of first appearance, members in batch order. Each group
    // is one kernel pass; requests sharing a pattern pack into it.
    std::vector<std::vector<std::size_t>> groups;
    std::unordered_map<const std::vector<Symbol> *, std::size_t,
                       PatternHash, PatternEq>
        groupOf;
    groupOf.reserve(admitted.size());
    for (const std::size_t idx : admitted) {
        const auto [it, fresh] =
            groupOf.try_emplace(&batch[idx].pattern, groups.size());
        if (fresh)
            groups.emplace_back();
        groups[it->second].push_back(idx);
    }

    std::uint64_t totalMismatches = 0;
    std::vector<const std::vector<Symbol> *> texts;
    for (const std::vector<std::size_t> &members : groups) {
        const std::vector<Symbol> &pattern = batch[members.front()].pattern;
        texts.clear();
        for (const std::size_t idx : members)
            texts.push_back(&batch[idx].text);

        bool checked = false;
        std::uint64_t mismatches = 0;
        auto bits = runPass(texts, pattern, checked, mismatches, clock);
        totalMismatches += mismatches;

        for (std::size_t m = 0; m < members.size(); ++m) {
            const std::size_t idx = members[m];
            MatchResponse &resp = out[idx];
            const std::size_t n = batch[idx].text.size();
            cfg.base.bus.transferChunk(batch[idx].text.data(),
                                       batch[idx].text.data(), n);
            resp.result = std::move(bits[m]);
            resp.backend = backendName;
            resp.chunks = 1;
            // The steady-rate contract: one text character per beat.
            resp.beats = static_cast<Beat>(n);
            streamCharsCtr.add(n);
            clock.addBeats(resp.beats);
            if (checked && mismatches != 0)
                resp.error = ServiceError::make(
                    ErrorCode::BackendFailed,
                    "sampled cross-check caught a kernel mismatch in "
                    "this pass");
        }
        clock.mark(telem::Stage::Commit);
    }
    if (!admitted.empty()) {
        const MatchRequest &lead = batch[admitted.front()];
        observe(clock, lead.id,
                totalMismatches != 0 ? "cross-check mismatch" : nullptr,
                cfg.base.alphabetBits, lead.pattern, lead.text);
    }
    return out;
}

} // namespace spm::service
