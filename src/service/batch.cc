#include "service/batch.hh"

#include <bit>
#include <optional>
#include <utility>

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

    // Group first: the pattern and size checks and the grouping read
    // no text character. A request that fails them keeps its error
    // for the walk below, which may overflow it instead. Groups are
    // numbered in order of first appearance; the table has at least
    // twice as many slots as requests, so a linear probe ends at the
    // pattern's group or at a free slot.
    const std::size_t mask = std::bit_ceil(2 * batch.size()) - 1;
    groupSlots.assign(mask + 1, 0);
    groupOf.resize(batch.size());
    groupChars.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const MatchRequest &req = batch[i];
        out[i].id = req.id;
        std::optional<ServiceError> err =
            validatePattern(cfg.base, req.pattern);
        if (!err && req.text.size() > cfg.base.maxTextLen)
            err = validateText(cfg.base, req.text);
        if (err) {
            out[i].error = std::move(*err);
            continue;
        }
        std::size_t at = patternHash(req.pattern) & mask;
        while (groupSlots[at] != 0 &&
               batch[groupSlots[at] - 1].pattern != req.pattern)
            at = (at + 1) & mask;
        if (groupSlots[at] == 0) {
            groupSlots[at] = static_cast<std::uint32_t>(i + 1);
            groupOf[i] = static_cast<std::uint32_t>(groupChars.size());
            groupChars.push_back(0);
        } else {
            groupOf[i] = groupOf[groupSlots[at] - 1];
        }
        groupChars[groupOf[i]] += req.text.size();
    }
    engine.layout(groupChars);
    if (members.size() < groupChars.size())
        members.resize(groupChars.size());
    for (std::size_t g = 0; g < groupChars.size(); ++g)
        members[g].clear();

    // Then one read of each text, in batch order: past the stream
    // limit (which counts admitted requests only) a request overflows;
    // otherwise its text narrows into its group's region, and its
    // alphabet verdict is the OR that narrowing returns. Only a
    // failing OR rescans the text to name the offender. A rejected or
    // over-limit text is never kept, so no pass reads it.
    passOrder.clear();
    std::size_t admitted = 0;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        MatchResponse &resp = out[i];
        if (admitted >= batchStreamLimit) {
            resp.error = reject(ServiceError::make(
                ErrorCode::QueueOverflow,
                "batch width limit of " +
                    std::to_string(batchStreamLimit) + " streams"));
            continue;
        }
        if (!resp.ok()) {
            resp.error = reject(std::move(resp.error));
            continue;
        }
        const std::uint32_t g = groupOf[i];
        const std::vector<Symbol> &text = batch[i].text;
        const Symbol seen = engine.stage(g, text);
        if (!textOrAdmits(cfg.base, seen))
            if (auto err = validateText(cfg.base, text)) {
                resp.error = reject(*err);
                continue;
            }
        engine.keep(g, text, seen);
        if (members[g].empty())
            passOrder.push_back(g);
        members[g].push_back(i);
        if (clock.running() && batch[i].enqueuedNs != 0)
            observer.noteQueueWait(telem::nowNs() - batch[i].enqueuedNs);
        ++admitted;
    }
    streamsCtr.add(admitted);
    clock.mark(telem::Stage::Admit);
    if (admitted != 0 && backendName.empty())
        backendName = intern("batch+" + engine.kernel().name());

    bool anyFailed = false;
    for (const std::uint32_t g : passOrder) {
        const std::vector<std::size_t> &group = members[g];
        const std::vector<Symbol> &pattern = batch[group.front()].pattern;

        // One kernel pass; each row goes straight into its response.
        const std::vector<std::uint64_t> &packed = engine.pass(g, pattern);
        std::size_t at = 0;
        for (const std::size_t idx : group) {
            MatchResponse &resp = out[idx];
            const std::size_t len = batch[idx].text.size();
            resp.result =
                core::BatchMatcher::row(packed, at, len, pattern.size());
            resp.backend = backendName;
            resp.chunks = 1;
            resp.beats = static_cast<Beat>(len);
            at += len;
        }
        kernelPassesCtr.add();
        // The steady-rate contract: one text character per beat.
        clock.addBeats(at);
        clock.mark(telem::Stage::Kernel);
        SPM_THIST(batchWidthHist, static_cast<double>(group.size()));
        if (cfg.base.crossCheck) {
            bool ok = true;
            for (std::size_t m = 0; m < group.size() && ok; ++m)
                ok = verify(batch[group[m]].text, pattern,
                            out[group[m]].result);
            clock.mark(telem::Stage::CrossCheck);
            if (!countCheck(ok)) {
                anyFailed = true;
                for (const std::size_t idx : group)
                    out[idx].error = ServiceError::make(
                        ErrorCode::BackendFailed,
                        "cross-check caught a kernel mismatch in this pass");
            }
        }
        // The pass's characters, charged once.
        cfg.base.bus.transferChunk(at);
        streamCharsCtr.add(at);
        clock.mark(telem::Stage::Commit);
    }
    if (admitted != 0) {
        // The first pass's first member is the call's first admitted.
        const MatchRequest &lead = batch[members[passOrder.front()].front()];
        observe(clock, lead.id,
                anyFailed ? "cross-check mismatch" : nullptr,
                cfg.base.alphabetBits, lead.pattern, lead.text);
    }
    return out;
}

} // namespace spm::service
