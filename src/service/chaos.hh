/**
 * @file
 * The chaos harness: seeded, replayable fault plans for the sharded
 * service.
 *
 * Section 5's yield argument only works if the reconfiguration
 * machinery actually catches defective cells; the serving layer's
 * spare-shard failover deserves the same scrutiny. This module wraps
 * a shard's ladder rungs in a decorator that injects the failure
 * modes the supervision code claims to survive:
 *
 *   Stall    the window charges past its watchdog budget in one tick
 *            (a wedged array: validity choreography corrupted);
 *   Hang     the worker sleeps past the batch deadline before
 *            answering (a dead worker: the host-side thread, not the
 *            chip, is gone) -- the late result must be discarded;
 *   Throw    the rung throws through the "must not throw" contract
 *            (a software defect in the host-side driver);
 *   Corrupt  the rung silently flips a result bit (an undetected
 *            chip defect) -- the poison for the overlap cross-check
 *            and the per-chunk reference cross-check to catch.
 *
 * Every decision is a pure function of (seed, slot, window index), so
 * a campaign replays identically regardless of thread interleaving:
 * the same windows fail the same way on every run. For hardware-true
 * corruption, hardestUndetectedSites() harvests the E16 fault-grading
 * escape list (stuck-at classes no workload in the pool detects) and
 * makePoisonedGateBackend() forces those nets on every freshly built
 * gate-level chip -- the exact defect population a screened prototype
 * could still ship with.
 */

#ifndef SPM_SERVICE_CHAOS_HH
#define SPM_SERVICE_CHAOS_HH

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fault/collapse.hh"
#include "service/backend.hh"
#include "service/sharded.hh"
#include "util/types.hh"

namespace spm::service
{

/** What the plan injects into one window. */
enum class ChaosKind : unsigned char
{
    None,    ///< serve the window honestly
    Stall,   ///< exhaust the watchdog budget (wedged array)
    Hang,    ///< sleep past the batch deadline (dead worker)
    Throw,   ///< throw through the no-throw backend contract
    Corrupt, ///< flip a result bit silently
};

/** One seeded fault storm: probabilities, targets and caps. */
struct ChaosConfig
{
    /** Root of every injection decision; same seed = same storm. */
    std::uint64_t seed = 1;

    /** @{ Per-window injection probabilities, each in [0, 1]. */
    double stallProb = 0.0;
    double hangProb = 0.0;
    double throwProb = 0.0;
    double corruptProb = 0.0;
    /** @} */

    /** Wall-clock sleep of a Hang injection, in milliseconds. */
    std::uint32_t hangMs = 50;

    /**
     * Injections per slot after which the slot behaves honestly again
     * (lets quarantine-then-heal tests model a transient fault burst).
     * 0 = the storm never abates.
     */
    unsigned maxInjectionsPerSlot = 0;

    /** Slots the storm targets; empty = every slot (spares included). */
    std::vector<std::uint32_t> targetSlots;

    /**
     * Fixed result-bit index a Corrupt injection flips (clamped to
     * the window); -1 picks a seeded pseudo-random position. Pinning
     * index 0 puts the flip in the k-1 overlap region of the slice's
     * first window -- the bit the neighbor shard also computes.
     */
    int corruptAt = -1;
};

/**
 * The replayable storm: decisions are pure functions of (seed, slot,
 * window), never of wall-clock or interleaving. Shared by every
 * ChaosBackend of a service via shared_ptr; the injection tally is
 * the only mutable state (and is observational, not decisional).
 */
class ChaosPlan
{
  public:
    explicit ChaosPlan(ChaosConfig config);

    const ChaosConfig &config() const { return cfg; }

    /** Whether the storm targets @p slot at all. */
    bool targets(std::uint32_t slot) const;

    /**
     * The injection for the @p window 'th window slot @p slot serves.
     * Honors maxInjectionsPerSlot by replaying the slot's decision
     * prefix, so the verdict stays pure and interleaving-free.
     */
    ChaosKind decide(std::uint32_t slot, std::uint64_t window) const;

    /** Corrupt-bit index for one window (cfg.corruptAt or seeded). */
    std::size_t corruptIndex(std::uint32_t slot, std::uint64_t window,
                             std::size_t window_len) const;

    /** Total injections performed under this plan (all slots). */
    std::uint64_t injections() const
    {
        return injected.load(std::memory_order_relaxed);
    }

    /** Called by ChaosBackend when it actually injects. */
    void noteInjection() const
    {
        injected.fetch_add(1, std::memory_order_relaxed);
    }

  private:
    ChaosKind rawDecision(std::uint32_t slot, std::uint64_t window) const;

    ChaosConfig cfg;
    mutable std::atomic<std::uint64_t> injected{0};
};

/**
 * Decorator rung: forwards to the wrapped backend unless the plan
 * injects. Keeps the inner rung's name so journals and ladder
 * transitions read the same as an un-faulted run.
 */
class ChaosBackend : public ServiceBackend
{
  public:
    ChaosBackend(std::unique_ptr<ServiceBackend> wrapped,
                 std::shared_ptr<const ChaosPlan> chaos_plan,
                 std::uint32_t slot_id);

    std::string name() const override { return inner->name(); }

    bool supports(const std::vector<Symbol> &pattern) const override
    {
        return inner->supports(pattern);
    }

    WindowResult matchWindow(const std::vector<Symbol> &window,
                             const std::vector<Symbol> &pattern,
                             BeatWatchdog &dog) override;

  private:
    std::unique_ptr<ServiceBackend> inner;
    std::shared_ptr<const ChaosPlan> plan;
    std::uint32_t slot;
    std::atomic<std::uint64_t> windowCounter{0};
};

/**
 * Harvest up to @p count of the hardest undetected stuck-at fault
 * classes from a fault-grading run of the (@p cells, @p alphabet_bits)
 * chip -- the E16 test-escape list, hardest first. These are the
 * defects a screened part could still ship with, which makes them the
 * honest poison corpus for chaos campaigns. Node ids are valid for
 * any freshly built GateChip of the same shape (construction is
 * deterministic).
 */
std::vector<fault::FaultSite> hardestUndetectedSites(
    std::size_t cells, BitWidth alphabet_bits, std::size_t count,
    std::uint64_t seed = 1979);

/**
 * A gate-level rung, named "systolic-gatelevel-poisoned", whose every
 * freshly built chip has @p sites forced stuck
 * (Netlist::forceStuckAt) before the protocol starts.
 * @p sites must come from a chip of the same cells/alphabetBits
 * shape as @p config (see hardestUndetectedSites).
 */
std::unique_ptr<ServiceBackend> makePoisonedGateBackend(
    const ServiceConfig &config, std::vector<fault::FaultSite> sites);

/**
 * A ladder factory for ShardedMatchService that wraps @p inner's
 * rungs in ChaosBackend decorators for the slots @p plan targets
 * (untargeted slots -- typically the spares -- get the inner ladder
 * untouched, so recovery paths are clean). When @p poison_sites is
 * non-empty a poisoned gate rung (also chaos-wrapped) is prepended to
 * targeted slots' ladders. @p inner defaults to makeDefaultLadder.
 */
ShardedMatchService::LadderFactory makeChaosLadderFactory(
    std::shared_ptr<const ChaosPlan> plan,
    ShardedMatchService::LadderFactory inner = nullptr,
    std::vector<fault::FaultSite> poison_sites = {});

/** One chaos campaign: a sharded service under a seeded fault storm. */
struct ChaosCampaignConfig
{
    /** Sharded service shape (threads, spares, deadline, ...). */
    ShardedConfig sharded;
    /** The storm. */
    ChaosConfig chaos;
    /**
     * Ladder each slot starts from before chaos wrapping; null =
     * makeDefaultLadder (benches pass a software-only factory so the
     * storm, not gate simulation, dominates the wall clock).
     */
    ShardedMatchService::LadderFactory innerFactory;
    /** Poison corpus forced on targeted slots' gate rungs. */
    std::vector<fault::FaultSite> poisonSites;
    std::size_t requests = 16;
    std::size_t textLen = 2048;
    std::size_t patternLen = 5;
    double wildcardProb = 0.2;
    /** Workload generator seed (independent of the storm seed). */
    std::uint64_t seed = 2026;
    /**
     * Observer hook called after each served request with the count
     * served so far and the live service; chaos_storm uses it to dump
     * periodic metrics snapshots for spm_top. Null = no observation.
     * The callback runs on the campaign thread between requests.
     */
    std::function<void(std::size_t served, const ShardedMatchService &svc)>
        progress;
};

/**
 * What a campaign proved. The acceptance invariant is
 * silentCorruptions == 0: every injected fault was either recovered
 * bit-identical to the un-faulted answer or rejected with a typed
 * ServiceError -- never returned wrong bits as ok().
 */
struct ChaosCampaignReport
{
    std::size_t requests = 0;
    std::size_t okRequests = 0;       ///< served with ok() responses
    std::size_t exactRequests = 0;    ///< ok() and bit-identical to reference
    std::size_t typedFailures = 0;    ///< rejected with a typed error
    std::size_t silentCorruptions = 0;///< ok() but wrong bits -- must be 0
    std::size_t recoveredRequests = 0;///< ok() despite shard faults

    std::uint64_t faultsInjected = 0;
    std::uint64_t shardFailures = 0;
    std::uint64_t shardTimeouts = 0;
    std::uint64_t shardExceptions = 0;
    std::uint64_t shardRetries = 0;
    std::uint64_t spareServes = 0;
    std::uint64_t quarantines = 0;
    std::uint64_t probes = 0;
    std::uint64_t overlapChecks = 0;
    std::uint64_t overlapMismatches = 0;

    double availabilityPct = 0.0; ///< okRequests / requests * 100
    double meanServeMs = 0.0;
    double maxServeMs = 0.0; ///< worst-case recovery latency

    /** "chaos.x = y" lines, stable order. */
    std::string renderText() const;
};

/**
 * Run one campaign: seeded random workloads through a chaos-wrapped
 * ShardedMatchService, every ok() response verified bit-for-bit
 * against the reference matcher. Deterministic in verdicts (the storm
 * and workloads are seeded); only the wall-clock fields vary.
 */
ChaosCampaignReport runChaosCampaign(const ChaosCampaignConfig &config);

} // namespace spm::service

#endif // SPM_SERVICE_CHAOS_HH
