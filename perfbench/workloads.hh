/**
 * @file
 * The benchmark's four workloads: input generators, front-end
 * configurations and the closed-loop end-to-end runs.
 *
 * Every input is a pure function of (seed, workload, index), so the
 * same seed gives the same inputs and the program under test sees
 * only generated data. One client sends the next call only after the
 * previous one returned; every call's output is checked against an
 * independent oracle outside the timed region.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "multipattern/dict.hh"
#include "service/batch.hh"
#include "service/dictserve.hh"
#include "service/service.hh"
#include "service/sharded.hh"
#include "trace.hh"

namespace perfbench
{

using spm::Symbol;
using Text = std::vector<Symbol>;

inline constexpr const char *workloadNames[] = {"long_scan", "short_batch",
                                                "dict_stream", "paper_chip"};

/** Input and front-end shapes; tiny() shrinks them for the quick test. */
struct Sizes
{
    std::size_t patternLen = 8;
    double wildcardProb = 0.12;
    spm::BitWidth alphabetBits = 2;

    std::size_t longText = 32768;
    std::size_t longChunk = 4096;
    std::size_t longJob = 8; ///< requests per cold front end
    unsigned longThreads = 2;

    std::size_t batchRequests = 1024;
    std::size_t batchMinLen = 16;
    std::size_t batchMaxLen = 256;
    std::size_t batchPool = 4;

    std::size_t dictMembers = 64;
    std::size_t dictChunk = 4096;

    std::size_t chipText = 512;
    /** Requests between host drains of the paper_chip replay journal. */
    std::size_t chipJournalDrain = 256;

    static Sizes tiny();
};

// --- inputs -------------------------------------------------------------

spm::service::MatchRequest longScanRequest(const Sizes &sz,
                                           std::uint64_t seed,
                                           std::uint64_t index);
std::vector<Text> batchPatternPool(const Sizes &sz, std::uint64_t seed);
std::vector<spm::service::MatchRequest> shortBatchCall(
    const Sizes &sz, std::uint64_t seed, std::uint64_t call,
    const std::vector<Text> &pool);
spm::multipattern::DictPatterns dictionary(const Sizes &sz,
                                           std::uint64_t seed);
Text dictChunk(const Sizes &sz, std::uint64_t seed, std::uint64_t index,
               const spm::multipattern::DictPatterns &dict);
spm::service::MatchRequest chipRequest(const Sizes &sz, std::uint64_t seed,
                                       std::uint64_t index);

/** The k-1-overlapping windows a MatchService streams @p text in. */
std::vector<Text> serviceWindows(const Text &text, std::size_t chunk,
                                 std::size_t pattern_len);

// --- front ends ---------------------------------------------------------

/** long_scan's per-shard service: one SIMD rung, no audit, no journal. */
spm::service::ServiceConfig longScanServiceConfig(const Sizes &sz);
spm::service::ShardedConfig longScanShardedConfig(const Sizes &sz);
/** A ladder whose only rung is SimdParallelMatcher behind MatcherBackend. */
std::vector<std::unique_ptr<spm::service::ServiceBackend>> simdLadder(
    const spm::service::ServiceConfig &cfg);
spm::service::BatchServiceConfig shortBatchConfig(const Sizes &sz);
spm::service::DictServiceConfig dictStreamConfig(const Sizes &sz);
/** The paper's prototype: the default ServiceConfig and ladder. */
spm::service::ServiceConfig paperChipConfig(const Sizes &sz);

// --- end-to-end runs ----------------------------------------------------

/**
 * One CPU-rotation slot of a run. Its calls and set-ups are the ones
 * booked between its start and the next slot's start.
 */
struct SlotRecord
{
    std::uint32_t firstCall = 0;
    std::uint32_t firstSetup = 0;
    double probeNs = 0; ///< host probe time at the slot's start and end
    double callNs = 0;  ///< summed latency of its calls
    double chars = 0;   ///< characters its calls served
};

/**
 * What one closed-loop run measured (host times in ns). The buffers are
 * sized and written before the run starts, so the benchmark's own
 * memory does not grow with the number of calls; a run ends early if
 * one fills up.
 */
struct E2EResult
{
    static constexpr std::size_t callCap = std::size_t{1} << 18;
    static constexpr std::size_t setupCap = callCap / 8;
    static constexpr std::size_t slotCap = std::size_t{1} << 12;

    E2EResult()
    {
        callNs.resize(callCap);
        callNs.clear();
        setupNs.resize(setupCap);
        setupNs.clear();
        slots.resize(slotCap);
        slots.clear();
    }

    std::uint64_t attempted = 0;  ///< calls sent
    std::uint64_t failed = 0;     ///< rejected, errored or wrong calls
    std::uint64_t mismatched = 0; ///< calls whose bits differ from the oracle
    std::uint64_t chars = 0;      ///< text characters served correctly
    std::uint64_t beats = 0;      ///< chip beats charged for them
    std::vector<float> callNs;    ///< latency of each call, in order
    std::vector<float> setupNs;   ///< one per front-end construction
    std::vector<SlotRecord> slots;
    double peakRssMb = 0; ///< VmHWM when the run's last call returned

    bool full() const
    {
        return callNs.size() == callCap || setupNs.size() == setupCap ||
               slots.size() == slotCap;
    }

    /** Book one call; @p served is 0 when the call failed. */
    void addCall(std::uint64_t ns, std::size_t served, std::uint64_t charged)
    {
        ++attempted;
        failed += served == 0 ? 1 : 0;
        chars += served;
        beats += served == 0 ? 0 : charged;
        callNs.push_back(static_cast<float>(ns));
        slots.back().callNs += static_cast<double>(ns);
        slots.back().chars += static_cast<double>(served);
    }

    void addSetup(std::uint64_t ns)
    {
        setupNs.push_back(static_cast<float>(ns));
    }
};

/**
 * Run workload @p name closed-loop for @p seconds of wall time (at
 * least one call, one whole job on long_scan). With @p tracer set,
 * each call is recorded as a span under a per-request root span.
 */
E2EResult runWorkload(const std::string &name, const Sizes &sz,
                      std::uint64_t seed, double seconds, Tracer *tracer);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
