/**
 * @file
 * E14 -- cross-fidelity conformance: differential fuzzing throughput
 * and detection power.
 *
 * The paper's whole methodology rests on one algorithm surviving
 * translation through every design level unchanged. E14 quantifies
 * how hard that claim is being tested: the structured fuzz sweep's
 * case rate across the full oracle registry (reference, behavioral
 * array, bit-serial, multipass, bit-sliced kernel tiers, gate-level x2,
 * cascade, sharded service x3), the committed regression corpus, and
 * the mutation self-check -- five seeded bugs the harness must catch
 * or the fuzzing proves nothing.
 *
 * Acceptance: the sweep runs clean across all configurations, every
 * corpus case replays clean, and zero mutants survive.
 */

#include "bench/bench_common.hh"

#include <string>

#include "conformance/harness.hh"
#include "conformance/mutants.hh"
#include "conformance/oracles.hh"
#include "util/table.hh"

#ifndef SPM_CORPUS_DIR
#define SPM_CORPUS_DIR "tests/corpus"
#endif

namespace
{

using namespace spm;
using namespace spm::conformance;

void
printReport()
{
    spm::bench::banner(
        "E14: cross-fidelity conformance (differential fuzzing)",
        "Every Matcher realization diffed against the reference on "
        "structured hard-region cases,\nwith per-beat golden traces, "
        "extension cross-checks, a committed corpus, and a\nmutation "
        "self-check that must catch all five seeded bugs.");

    // --- the oracle registry ----------------------------------------
    {
        Table t("Oracle registry (entry 0 is the trusted reference)");
        t.setHeader({"#", "configuration"});
        const auto names = allOracleNames(true);
        for (std::size_t i = 0; i < names.size(); ++i)
            t.addRowOf(std::to_string(i), names[i]);
        t.print();
    }

    // --- fuzz throughput --------------------------------------------
    HarnessConfig cfg;
    cfg.cases = spm::bench::smokeMode() ? 500 : 20'000;
    const RunReport fuzz = runFuzz(cfg);
    std::printf(
        "\nFuzz sweep: %llu cases, %llu cross-checks (%llu skipped "
        "by eligibility/stride),\n%llu extension checks, %llu golden "
        "traces, %.2f s -> %.0f cases/s, %zu failure(s).\n",
        static_cast<unsigned long long>(fuzz.casesRun),
        static_cast<unsigned long long>(fuzz.comparisons),
        static_cast<unsigned long long>(fuzz.skipped),
        static_cast<unsigned long long>(fuzz.extensionChecks),
        static_cast<unsigned long long>(fuzz.goldenTraceRuns),
        fuzz.seconds, fuzz.casesPerSec(), fuzz.failures.size());
    for (const Failure &f : fuzz.failures)
        std::printf("%s\n", f.report().c_str());

    // --- corpus replay ----------------------------------------------
    const RunReport corpus = runCorpus(SPM_CORPUS_DIR, cfg);
    std::printf(
        "\nCorpus replay (%s): %llu cases, %llu cross-checks, "
        "%zu failure(s).\n",
        SPM_CORPUS_DIR,
        static_cast<unsigned long long>(corpus.casesRun),
        static_cast<unsigned long long>(corpus.comparisons),
        corpus.failures.size());
    for (const Failure &f : corpus.failures)
        std::printf("%s\n", f.report().c_str());

    // --- mutation self-check ----------------------------------------
    const MutationReport mut = runMutationSelfCheck(
        cfg.seed, spm::bench::smokeMode() ? 200 : 2000);
    {
        Table t("Mutation self-check: seeded bugs the harness must "
                "catch");
        t.setHeader({"mutant", "seeded bug", "fate", "cases",
                     "shrunk reproduction"});
        for (const MutantOutcome &o : mut.outcomes)
            t.addRowOf(o.name, o.seededBug,
                       o.caught ? "caught" : "SURVIVED",
                       std::to_string(o.casesTried),
                       o.caught ? o.shrunkId : "-");
        t.print();
    }
    std::printf("\n%zu/%zu mutants caught in %.2f s (acceptance: "
                "zero survivors).\n",
                mut.outcomes.size() - mut.survivors(),
                mut.outcomes.size(), mut.seconds);

    const bool ok =
        fuzz.ok() && corpus.ok() && mut.allCaught() && corpus.casesRun > 0;
    std::printf("\nE14 verdict: %s\n",
                ok ? "all implementations agree, all mutants caught"
                   : "FAILED (see above)");

    spm::bench::jsonReport().set("e14_cases",
                                 static_cast<double>(fuzz.casesRun));
    spm::bench::jsonReport().set("e14_cases_per_sec",
                                 fuzz.casesPerSec());
    spm::bench::jsonReport().set(
        "e14_cross_checks", static_cast<double>(fuzz.comparisons));
    spm::bench::jsonReport().set(
        "e14_corpus_cases", static_cast<double>(corpus.casesRun));
    spm::bench::jsonReport().set(
        "e14_mutants_total", static_cast<double>(mut.outcomes.size()));
    spm::bench::jsonReport().set(
        "e14_mutants_caught",
        static_cast<double>(mut.outcomes.size() - mut.survivors()));
    spm::bench::jsonReport().set("e14_failures",
                                 static_cast<double>(
                                     fuzz.failures.size() +
                                     corpus.failures.size()));
}

void
fuzzSweepFullRegistry(benchmark::State &state)
{
    HarnessConfig cfg;
    cfg.cases = 64;
    for (auto _ : state) {
        cfg.seed += 1; // fresh cases every iteration
        benchmark::DoNotOptimize(runFuzz(cfg).comparisons);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * cfg.cases);
}

void
fuzzSweepNoGate(benchmark::State &state)
{
    HarnessConfig cfg;
    cfg.cases = 64;
    cfg.withGate = false;
    for (auto _ : state) {
        cfg.seed += 1;
        benchmark::DoNotOptimize(runFuzz(cfg).comparisons);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * cfg.cases);
}

void
corpusReplay(benchmark::State &state)
{
    const HarnessConfig cfg;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            runCorpus(SPM_CORPUS_DIR, cfg).comparisons);
    }
}

BENCHMARK(fuzzSweepFullRegistry)->Unit(benchmark::kMillisecond);
BENCHMARK(fuzzSweepNoGate)->Unit(benchmark::kMillisecond);
BENCHMARK(corpusReplay)->Unit(benchmark::kMillisecond);

} // namespace

SPM_BENCH_MAIN(printReport)
