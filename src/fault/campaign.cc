#include "fault/campaign.hh"

#include <algorithm>
#include <memory>

#include "core/behavioral.hh"
#include "core/bitserial.hh"
#include "core/gatechip.hh"
#include "core/multipass.hh"
#include "core/reference.hh"
#include "fault/bypass.hh"
#include "fault/injector.hh"
#include "fault/parity.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace spm::fault
{

const char *
outcomeName(Outcome outcome)
{
    switch (outcome) {
    case Outcome::Masked:
        return "masked";
    case Outcome::Detected:
        return "detected";
    case Outcome::Corrected:
        return "corrected";
    case Outcome::Silent:
        return "silent";
    }
    return "?";
}

std::string
TrialResult::detectors() const
{
    std::string s;
    auto add = [&s](const char *name) {
        if (!s.empty())
            s += "+";
        s += name;
    };
    if (parityFlag)
        add("parity");
    if (selfCheckFlag)
        add("selfcheck");
    if (tmrFlag)
        add("tmr");
    if (referenceFlag)
        add("reference");
    return s.empty() ? "-" : s;
}

FaultCampaign::FaultCampaign(CampaignConfig config) : cfg(config)
{
    spm_assert(cfg.cells > 0, "campaign needs at least one cell");
    spm_assert(cfg.patternLen >= 1 && cfg.patternLen <= cfg.cells,
               "campaign pattern must fit the array");
    spm_assert(cfg.patternLen <= cfg.textLen,
               "campaign pattern longer than the text");
    spm_assert(static_cast<std::size_t>(cfg.waferRows) * cfg.waferCols >=
                   cfg.cells,
               "wafer has fewer sites than the array has cells");

    WorkloadGen gen(cfg.seed, cfg.alphabetBits);
    pattern = gen.randomPattern(cfg.patternLen, cfg.wildcardProb);
    text = gen.textWithPlants(cfg.textLen, pattern,
                              std::max<std::size_t>(cfg.textLen / 4, 1));
    golden = core::ReferenceMatcher().match(text, pattern);
}

Beat
FaultCampaign::protocolBeats() const
{
    return core::ChipFeedPlan(cfg.cells, pattern, text.size())
        .totalBeats();
}

FaultCampaign::Observation
FaultCampaign::protectedRun(const Fault *f, const Protection &prot) const
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    Observation obs;
    obs.result.assign(n, false);

    const std::size_t lanes = prot.tmr ? 3 : 1;
    const auto variant = prot.selfCheck
        ? core::BehavioralChip::CellVariant::SelfChecking
        : core::BehavioralChip::CellVariant::Plain;

    // Declared before the chips so the injection hooks its attach()
    // registers never outlive it.
    FaultInjector inj(cfg.alphabetBits);
    if (f)
        inj.addFault(*f);

    std::vector<std::unique_ptr<core::BehavioralChip>> chips;
    chips.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l)
        chips.push_back(std::make_unique<core::BehavioralChip>(
            cfg.cells, prototypeBeatPs, variant));
    // Lane 0 is the faulty lane; TMR lanes 1 and 2 stay clean, so a
    // single faulty array is always outvoted.
    inj.attach(chips[0]->engine(), behavioralResolver(*chips[0]));

    StreamParityChecker patChk(cfg.alphabetBits);
    StreamParityChecker strChk(cfg.alphabetBits);

    const core::ChipFeedPlan plan(cfg.cells, pattern, n);
    std::size_t collected = 0;
    Beat beat = 0;
    for (; beat < plan.totalBeats() && collected < n; ++beat) {
        const core::PatToken p = plan.patternAt(beat);
        const core::CtlToken c = plan.controlAt(beat);
        const core::StrToken s = plan.stringAt(beat, text);
        const core::ResToken rslot = plan.resultAt(beat);
        for (auto &chip : chips) {
            chip->feedPattern(p);
            chip->feedControl(c);
            chip->feedString(s);
            chip->feedResult(rslot);
            chip->step();
        }

        if (prot.parity) {
            // The host computes parity at the near edge; the far edge
            // recomputes it when the character re-emerges.
            if (p.valid)
                patChk.onFeed(p.sym);
            if (s.valid)
                strChk.onFeed(s.sym);
            const core::PatToken po = chips[0]->patternOut();
            if (po.valid)
                patChk.onExit(po.sym);
            const core::StrToken so = chips[0]->stringOut();
            if (so.valid)
                strChk.onExit(so.sym);
        }

        core::ResToken out = chips[0]->resultOut();
        if (lanes == 3 && out.valid) {
            // Faults never touch validity (the clock choreography),
            // so the three lanes agree on when a result is present
            // and the vote is over the value bit alone.
            const bool v0 = out.value;
            const bool v1 = chips[1]->resultOut().value;
            const bool v2 = chips[2]->resultOut().value;
            const bool voted = int(v0) + int(v1) + int(v2) >= 2;
            if (v0 != voted || v1 != voted || v2 != voted)
                ++obs.tmrDisagreements;
            out.value = voted;
        }
        if (out.valid) {
            obs.result[collected] = collected >= len - 1 && out.value;
            ++collected;
        }
    }
    spm_assert(collected == n, "campaign collected ", collected, " of ",
               n, " results after ", beat, " beats");

    obs.parityErrors = patChk.errors() + strChk.errors();
    obs.selfCheckErrors = chips[0]->selfCheckMismatches();
    return obs;
}

TrialResult
FaultCampaign::runTrial(const Fault &f)
{
    TrialResult tr;
    tr.fault = f;

    Observation obs = protectedRun(&f, cfg.protection);
    tr.parityFlag = obs.parityErrors > 0;
    tr.selfCheckFlag = obs.selfCheckErrors > 0;
    tr.tmrFlag = obs.tmrDisagreements > 0;
    const bool correct = obs.result == golden;
    tr.referenceFlag = cfg.protection.referenceCheck && !correct;
    const bool signaled = tr.parityFlag || tr.selfCheckFlag ||
                          tr.tmrFlag || tr.referenceFlag;

    if (correct) {
        if (!signaled)
            tr.outcome = Outcome::Masked;
        else if (tr.tmrFlag)
            // The voter actively overrode the faulty lane.
            tr.outcome = Outcome::Corrected;
        else
            tr.outcome = Outcome::Detected;
        return tr;
    }

    if (!signaled) {
        tr.outcome = Outcome::Silent;
        return tr;
    }

    // Flagged and wrong: recovery layers, cheapest first.
    if (cfg.protection.retry) {
        HostRetryController retry(cfg.retryPolicy);
        Observation last;
        auto attempt = [&] {
            // A transient upset does not recur on the re-run; a
            // permanent fault does.
            last = protectedRun(f.isPermanent() ? &f : nullptr,
                                cfg.protection);
            return last.result;
        };
        auto verify = [&](const std::vector<bool> &r) {
            if (cfg.protection.referenceCheck)
                return r == golden;
            return last.parityErrors == 0 && last.selfCheckErrors == 0 &&
                   last.tmrDisagreements == 0;
        };
        try {
            retry.run(attempt, verify);
            tr.attempts += retry.lastAttempts();
            tr.backoffBeats = retry.lastBackoffBeats();
            tr.outcome = Outcome::Corrected;
            return tr;
        } catch (const RetryExhausted &) {
            tr.attempts += retry.lastAttempts();
            tr.backoffBeats = retry.lastBackoffBeats();
        }
    }

    if (cfg.protection.bypass && f.isPermanent()) {
        // Retire the faulty cell's wafer site and re-harvest: the
        // machine degrades to the surviving chain (or holds its size
        // when the wafer has spare sites) and the match is re-run on
        // the reconfigured array through the multipass driver.
        BypassController bp(
            flow::Wafer(cfg.waferRows, cfg.waferCols, 0.0, cfg.seed));
        const std::size_t chain = bp.retireCell(f.cell);
        const std::size_t degraded = std::min(cfg.cells, chain);
        if (degraded > 0) {
            core::MultipassMatcher degradedArray(degraded);
            const std::vector<bool> r =
                degradedArray.match(text, pattern);
            ++tr.attempts;
            tr.degradedCells = degraded;
            if (!cfg.protection.referenceCheck || r == golden) {
                tr.outcome = Outcome::Corrected;
                return tr;
            }
        }
    }

    if (cfg.strictRetry)
        throw RetryExhausted("fault not recovered: " + f.describe());
    // The answer is wrong but flagged -- the host knows not to trust
    // it, which is the contract Detected records.
    tr.outcome = Outcome::Detected;
    return tr;
}

std::vector<TrialResult>
FaultCampaign::run(const std::vector<Fault> &faults)
{
    std::vector<TrialResult> results;
    results.reserve(faults.size());
    for (const Fault &f : faults)
        results.push_back(runTrial(f));
    return results;
}

Outcome
FaultCampaign::runReferenceChecked(Fidelity fidelity, const Fault &f)
{
    FaultInjector inj(cfg.alphabetBits);
    inj.addFault(f);

    std::vector<bool> r;
    switch (fidelity) {
    case Fidelity::Behavioral: {
        Protection ref_only = Protection::none();
        ref_only.referenceCheck = true;
        r = protectedRun(&f, ref_only).result;
        break;
    }
    case Fidelity::BitSerial: {
        core::BitSerialMatcher matcher(cfg.cells, cfg.alphabetBits);
        matcher.setChipPrep([&inj](core::BitSerialChip &chip) {
            inj.attach(chip.engine(), bitSerialResolver(chip));
        });
        r = matcher.match(text, pattern);
        break;
    }
    case Fidelity::GateLevel: {
        core::GateLevelMatcher matcher(cfg.cells, cfg.alphabetBits);
        matcher.setChipPrep([&inj](core::GateChip &chip) {
            lowerStuckAtFaults(chip, inj.faultList());
        });
        r = matcher.match(text, pattern);
        break;
    }
    }
    return r == golden ? Outcome::Masked : Outcome::Detected;
}

double
FaultCampaign::Summary::detectedOrCorrectedPct() const
{
    const std::size_t eff = effective();
    if (eff == 0)
        return 100.0;
    return 100.0 * static_cast<double>(detected + corrected) /
           static_cast<double>(eff);
}

double
FaultCampaign::Summary::silentPct() const
{
    if (total == 0)
        return 0.0;
    return 100.0 * static_cast<double>(silent) /
           static_cast<double>(total);
}

FaultCampaign::Summary
FaultCampaign::summarize(const std::vector<TrialResult> &results)
{
    Summary s;
    s.total = results.size();
    for (const TrialResult &tr : results) {
        switch (tr.outcome) {
        case Outcome::Masked:
            ++s.masked;
            break;
        case Outcome::Detected:
            ++s.detected;
            break;
        case Outcome::Corrected:
            ++s.corrected;
            break;
        case Outcome::Silent:
            ++s.silent;
            break;
        }
    }
    return s;
}

Table
FaultCampaign::coverageTable(const std::vector<TrialResult> &results,
                             const std::string &title)
{
    Table t(title);
    t.setHeader({"fault kind", "injected", "masked", "detected",
                 "corrected", "silent", "det+corr % (effective)"});

    const FaultKind kinds[] = {
        FaultKind::StuckAt0,
        FaultKind::StuckAt1,
        FaultKind::DeadCell,
        FaultKind::TransientFlip,
    };
    Summary all;
    all.total = results.size();
    for (FaultKind k : kinds) {
        std::vector<TrialResult> of_kind;
        for (const TrialResult &tr : results)
            if (tr.fault.kind == k)
                of_kind.push_back(tr);
        if (of_kind.empty())
            continue;
        const Summary s = summarize(of_kind);
        all.masked += s.masked;
        all.detected += s.detected;
        all.corrected += s.corrected;
        all.silent += s.silent;
        t.addRowOf(faultKindName(k), s.total, s.masked, s.detected,
                   s.corrected, s.silent,
                   Table::fixed(s.detectedOrCorrectedPct(), 1));
    }
    t.addRowOf("all", all.total, all.masked, all.detected, all.corrected,
               all.silent, Table::fixed(all.detectedOrCorrectedPct(), 1));
    return t;
}

} // namespace spm::fault
