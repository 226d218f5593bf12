#include "service/batch.hh"

#include <bit>
#include <utility>

#include "core/reference.hh"
#include "telemetry/event.hh"
#include "telemetry/telem.hh"
#include "util/strings.hh"

namespace spm::service
{

namespace
{

/** Most streams admitted into one serveBatch() call. */
constexpr std::size_t batchStreamLimit = 4096;

/**
 * FNV-1a over a pattern's symbols, for grouping by pattern. The high
 * half is folded in: a low bit of the product sees only low input
 * bits, and the table indexes by the low bits.
 */
std::size_t
patternHash(std::span<const Symbol> pattern)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const Symbol s : pattern)
        h = (h ^ s) * 0x100000001b3ull;
    return static_cast<std::size_t>(h ^ h >> 32);
}

} // namespace

BatchMatchService::BatchMatchService(BatchServiceConfig config)
    : FrontEnd(config.base.alphabetBits, "batch", "batch."),
      cfg(std::move(config)),
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

std::vector<MatchResponse>
BatchMatchService::serveBatch(const std::vector<MatchRequest> &batch)
{
    batchesCtr.add();
    std::vector<MatchResponse> out(batch.size());

    // One stage clock for the whole call, its spans stamped with the
    // call's ordinal: the kernel pass is shared, so per-pass
    // attribution is the honest granularity. Per-member queue waits
    // feed the stage histogram directly (noteQueueWait).
    telem::StageClock clock = startClock(0, batchesCtr.value());

    // Validate independently; collect the admissible requests.
    admitted.clear();
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
    // The table has at least twice as many slots as requests, so a
    // linear probe ends at the pattern's group or at a free slot.
    const std::size_t mask = std::bit_ceil(2 * admitted.size()) - 1;
    groupSlots.assign(mask + 1, 0);
    std::size_t nGroups = 0;
    for (const std::size_t idx : admitted) {
        const std::vector<Symbol> &pattern = batch[idx].pattern;
        std::size_t at = patternHash(pattern) & mask;
        while (groupSlots[at] != 0 &&
               batch[groups[groupSlots[at] - 1].front()].pattern != pattern)
            at = (at + 1) & mask;
        if (groupSlots[at] == 0) {
            if (nGroups == groups.size())
                groups.emplace_back();
            groups[nGroups].clear();
            groupSlots[at] = static_cast<std::uint32_t>(++nGroups);
        }
        groups[groupSlots[at] - 1].push_back(idx);
    }
    if (nGroups != 0 && backendName.empty())
        backendName = intern("batch+" + engine.kernel().name());

    std::uint64_t totalMismatches = 0;
    for (std::size_t g = 0; g < nGroups; ++g) {
        const std::vector<std::size_t> &members = groups[g];
        const std::vector<Symbol> &pattern = batch[members.front()].pattern;
        texts.clear();
        std::size_t passChars = 0;
        for (const std::size_t idx : members) {
            texts.push_back(&batch[idx].text);
            passChars += batch[idx].text.size();
        }

        // One kernel pass; every Nth replays through the reference.
        const bool checked = cfg.crossCheckEvery != 0 &&
                             kernelPassesCtr.value() % cfg.crossCheckEvery == 0;
        std::vector<BitVec> bits = engine.matchMany(texts, pattern);
        kernelPassesCtr.add();
        // The steady-rate contract: one text character per beat.
        clock.addBeats(passChars);
        clock.mark(telem::Stage::Kernel);
        SPM_THIST(batchWidthHist, static_cast<double>(texts.size()));
        std::uint64_t mismatches = 0;
        if (checked) {
            crossChecksCtr.add();
            core::ReferenceMatcher ref;
            for (std::size_t i = 0; i < texts.size(); ++i)
                mismatches += bits[i] != ref.match(*texts[i], pattern);
            crossCheckFailuresCtr.add(mismatches);
            clock.mark(telem::Stage::CrossCheck);
        }
        totalMismatches += mismatches;

        for (std::size_t m = 0; m < members.size(); ++m) {
            MatchResponse &resp = out[members[m]];
            resp.result = std::move(bits[m]);
            resp.backend = backendName;
            resp.chunks = 1;
            resp.beats = static_cast<Beat>(texts[m]->size());
            if (mismatches != 0)
                resp.error = ServiceError::make(
                    ErrorCode::BackendFailed,
                    "sampled cross-check caught a kernel mismatch in "
                    "this pass");
        }
        // The pass's characters, charged once.
        cfg.base.bus.transferChunk(passChars);
        streamCharsCtr.add(passChars);
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
