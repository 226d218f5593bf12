#include "service/chaos.hh"

#include <chrono>
#include <cstdio>
#include <random>
#include <stdexcept>
#include <thread>

#include "core/gatechip.hh"
#include "core/reference.hh"
#include "fault/grade.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace spm::service
{

namespace
{

/** The decision hash (seed, slot, window) -> u64. */
std::uint64_t
decisionHash(std::uint64_t seed, std::uint32_t slot, std::uint64_t window,
             std::uint64_t salt)
{
    return splitmix64(seed ^
                      splitmix64(slot * 0x0123456789abcdefULL ^ salt) ^
                      splitmix64(window));
}

/** Hash to a uniform double in [0, 1). */
double
unitDouble(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** A gate rung under its own name, so journals tell it from the clean one. */
class PoisonedGateBackend : public GateBackend
{
  public:
    using GateBackend::GateBackend;

    std::string name() const override
    {
        return "systolic-gatelevel-poisoned";
    }
};

} // namespace

ChaosPlan::ChaosPlan(ChaosConfig config) : cfg(std::move(config)) {}

bool
ChaosPlan::targets(std::uint32_t slot) const
{
    if (cfg.targetSlots.empty())
        return true;
    for (std::uint32_t t : cfg.targetSlots)
        if (t == slot)
            return true;
    return false;
}

ChaosKind
ChaosPlan::rawDecision(std::uint32_t slot, std::uint64_t window) const
{
    const double u = unitDouble(decisionHash(cfg.seed, slot, window, 0));
    double edge = cfg.stallProb;
    if (u < edge)
        return ChaosKind::Stall;
    edge += cfg.hangProb;
    if (u < edge)
        return ChaosKind::Hang;
    edge += cfg.throwProb;
    if (u < edge)
        return ChaosKind::Throw;
    edge += cfg.corruptProb;
    if (u < edge)
        return ChaosKind::Corrupt;
    return ChaosKind::None;
}

ChaosKind
ChaosPlan::decide(std::uint32_t slot, std::uint64_t window) const
{
    if (!targets(slot))
        return ChaosKind::None;
    const ChaosKind kind = rawDecision(slot, window);
    if (kind == ChaosKind::None)
        return kind;
    if (cfg.maxInjectionsPerSlot > 0) {
        // Replay the slot's decision prefix so the cap is a pure
        // function of (seed, slot, window) -- no shared mutable
        // counter whose value would depend on thread interleaving.
        unsigned before = 0;
        for (std::uint64_t w = 0; w < window; ++w)
            if (rawDecision(slot, w) != ChaosKind::None)
                ++before;
        if (before >= cfg.maxInjectionsPerSlot)
            return ChaosKind::None;
    }
    return kind;
}

std::size_t
ChaosPlan::corruptIndex(std::uint32_t slot, std::uint64_t window,
                        std::size_t window_len) const
{
    spm_assert(window_len > 0, "cannot corrupt an empty window");
    if (cfg.corruptAt >= 0)
        return std::min<std::size_t>(
            static_cast<std::size_t>(cfg.corruptAt), window_len - 1);
    return decisionHash(cfg.seed, slot, window, 0xc0ffee) % window_len;
}

ChaosBackend::ChaosBackend(std::unique_ptr<ServiceBackend> wrapped,
                           std::shared_ptr<const ChaosPlan> chaos_plan,
                           std::uint32_t slot_id)
    : inner(std::move(wrapped)), plan(std::move(chaos_plan)), slot(slot_id)
{
    spm_assert(inner != nullptr, "chaos backend needs a wrapped rung");
    spm_assert(plan != nullptr, "chaos backend needs a plan");
}

WindowResult
ChaosBackend::matchWindow(const std::vector<Symbol> &window,
                          const std::vector<Symbol> &pattern,
                          BeatWatchdog &dog)
{
    const std::uint64_t w =
        windowCounter.fetch_add(1, std::memory_order_relaxed);
    switch (plan->decide(slot, w)) {
    case ChaosKind::None:
        break;
    case ChaosKind::Stall: {
        plan->noteInjection();
        // One charge past the armed budget: the wedged-array shape a
        // corrupted validity choreography produces.
        const Beat charge = dog.budget() + 1;
        dog.tick(charge);
        WindowResult r;
        r.beats = charge;
        r.completed = false;
        r.note = "chaos: stall injected";
        return r;
    }
    case ChaosKind::Hang:
        plan->noteInjection();
        // The worker thread, not the chip, is gone: sleep past the
        // batch deadline, then answer honestly. The supervisor must
        // have moved on and must discard this late result.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(plan->config().hangMs));
        break;
    case ChaosKind::Throw:
        plan->noteInjection();
        throw std::runtime_error(
            "chaos: injected exception (slot " + std::to_string(slot) +
            ", window " + std::to_string(w) + ")");
    case ChaosKind::Corrupt: {
        plan->noteInjection();
        WindowResult r = inner->matchWindow(window, pattern, dog);
        if (r.completed && !r.bits.empty()) {
            const std::size_t i = plan->corruptIndex(slot, w, r.bits.size());
            r.bits.set(i, !r.bits.get(i));
        }
        return r;
    }
    }
    return inner->matchWindow(window, pattern, dog);
}

std::vector<fault::FaultSite>
hardestUndetectedSites(std::size_t cells, BitWidth alphabet_bits,
                       std::size_t count, std::uint64_t seed)
{
    fault::GradeConfig g;
    g.cells = cells;
    g.alphabetBits = alphabet_bits;
    g.patternLen = std::min<std::size_t>(4, cells);
    g.textLen = 32;
    g.workloads = 2;
    g.seed = seed;
    g.crossCheckSamples = 0; // the corpus needs sites, not verdicts
    fault::GradeReport report = fault::FaultGrader(g).run();
    std::vector<fault::FaultSite> sites;
    sites.reserve(std::min(count, report.undetected.size()));
    for (const fault::UndetectedFault &u : report.undetected) {
        if (sites.size() >= count)
            break;
        sites.push_back(u.site);
    }
    return sites;
}

std::unique_ptr<ServiceBackend>
makePoisonedGateBackend(const ServiceConfig &config,
                        std::vector<fault::FaultSite> sites)
{
    auto gate = std::make_unique<PoisonedGateBackend>(config.cells,
                                                      config.alphabetBits);
    gate->matcher().setChipPrep(
        [sites = std::move(sites)](core::GateChip &chip) {
            for (const fault::FaultSite &site : sites)
                chip.netlist().forceStuckAt(site.node, site.level(), 0);
        });
    return gate;
}

ShardedMatchService::LadderFactory
makeChaosLadderFactory(std::shared_ptr<const ChaosPlan> plan,
                       ShardedMatchService::LadderFactory inner,
                       std::vector<fault::FaultSite> poison_sites)
{
    spm_assert(plan != nullptr, "chaos ladder factory needs a plan");
    if (!inner)
        inner = [](const ServiceConfig &c) { return makeDefaultLadder(c); };
    return [plan, inner, poison_sites](const ServiceConfig &c)
               -> std::vector<std::unique_ptr<ServiceBackend>> {
        std::vector<std::unique_ptr<ServiceBackend>> rungs = inner(c);
        if (!plan->targets(c.shardId))
            return rungs;
        std::vector<std::unique_ptr<ServiceBackend>> wrapped;
        wrapped.reserve(rungs.size() + 1);
        if (!poison_sites.empty())
            wrapped.push_back(std::make_unique<ChaosBackend>(
                makePoisonedGateBackend(c, poison_sites), plan, c.shardId));
        for (auto &rung : rungs)
            wrapped.push_back(std::make_unique<ChaosBackend>(
                std::move(rung), plan, c.shardId));
        return wrapped;
    };
}

std::string
ChaosCampaignReport::renderText() const
{
    char buf[64];
    std::string s;
    const auto line = [&s](const char *key, std::uint64_t v) {
        s += "chaos.";
        s += key;
        s += " = " + std::to_string(v) + "\n";
    };
    line("requests", requests);
    line("ok", okRequests);
    line("exact", exactRequests);
    line("typed_failures", typedFailures);
    line("silent_corruptions", silentCorruptions);
    line("recovered", recoveredRequests);
    line("faults_injected", faultsInjected);
    line("shard_failures", shardFailures);
    line("shard_timeouts", shardTimeouts);
    line("shard_exceptions", shardExceptions);
    line("shard_retries", shardRetries);
    line("spare_serves", spareServes);
    line("quarantines", quarantines);
    line("probes", probes);
    line("overlap_checks", overlapChecks);
    line("overlap_mismatches", overlapMismatches);
    std::snprintf(buf, sizeof(buf), "%.1f", availabilityPct);
    s += "chaos.availability_pct = " + std::string(buf) + "\n";
    std::snprintf(buf, sizeof(buf), "%.3f", meanServeMs);
    s += "chaos.mean_serve_ms = " + std::string(buf) + "\n";
    std::snprintf(buf, sizeof(buf), "%.3f", maxServeMs);
    s += "chaos.max_serve_ms = " + std::string(buf) + "\n";
    return s;
}

ChaosCampaignReport
runChaosCampaign(const ChaosCampaignConfig &config)
{
    auto plan = std::make_shared<const ChaosPlan>(config.chaos);
    ShardedMatchService sharded(
        config.sharded,
        makeChaosLadderFactory(plan, config.innerFactory,
                               config.poisonSites));

    core::ReferenceMatcher reference;
    std::mt19937_64 rng(config.seed);
    const Symbol top = static_cast<Symbol>(
        (1u << config.sharded.base.alphabetBits) - 1);
    std::uniform_int_distribution<unsigned> sym(0, top);
    std::bernoulli_distribution wild(config.wildcardProb);

    ChaosCampaignReport rep;
    rep.requests = config.requests;
    double total_ms = 0.0;
    for (std::size_t i = 0; i < config.requests; ++i) {
        MatchRequest req;
        req.id = i + 1;
        req.text.reserve(config.textLen);
        for (std::size_t j = 0; j < config.textLen; ++j)
            req.text.push_back(static_cast<Symbol>(sym(rng)));
        req.pattern.reserve(config.patternLen);
        for (std::size_t j = 0; j < config.patternLen; ++j)
            req.pattern.push_back(wild(rng) ? wildcardSymbol
                                            : static_cast<Symbol>(sym(rng)));
        const BitVec expected = reference.match(req.text, req.pattern);

        const auto t0 = std::chrono::steady_clock::now();
        const MatchResponse resp = sharded.serve(req);
        const auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        total_ms += ms;
        rep.maxServeMs = std::max(rep.maxServeMs, ms);

        if (resp.ok()) {
            ++rep.okRequests;
            if (resp.result == expected)
                ++rep.exactRequests;
            else
                ++rep.silentCorruptions;
            if (!sharded.lastShardErrors().empty())
                ++rep.recoveredRequests;
        } else {
            ++rep.typedFailures;
        }
        if (config.progress)
            config.progress(i + 1, sharded);
    }
    rep.faultsInjected = plan->injections();
    const telem::Snapshot snap = sharded.metricsSnapshot();
    rep.shardFailures = snap.counterValue("sharded.shard_failures");
    rep.shardTimeouts = snap.counterValue("sharded.shard_timeouts");
    rep.shardExceptions = snap.counterValue("sharded.shard_exceptions");
    rep.shardRetries = snap.counterValue("sharded.shard_retries");
    rep.spareServes = snap.counterValue("sharded.spare_serves");
    rep.quarantines = snap.counterValue("sharded.quarantines");
    rep.probes = snap.counterValue("sharded.probes");
    rep.overlapChecks = snap.counterValue("sharded.overlap_checks");
    rep.overlapMismatches = snap.counterValue("sharded.overlap_mismatches");
    rep.availabilityPct =
        rep.requests == 0
            ? 100.0
            : 100.0 * static_cast<double>(rep.okRequests) /
                  static_cast<double>(rep.requests);
    rep.meanServeMs = rep.requests == 0
                          ? 0.0
                          : total_ms / static_cast<double>(rep.requests);
    return rep;
}

} // namespace spm::service
