/**
 * @file
 * E16 -- chip-scale fault grading: structural collapsing, SCOAP
 * scoring, and 64-wide word-parallel fault simulation.
 *
 * Serial fault grading runs the full match protocol once per stuck-at
 * fault; the word-parallel simulator replays a captured stimulus
 * trace with 64 faults forced at once, one per bit lane. This
 * experiment regenerates the grading headline numbers:
 *
 *   collapse   universe -> equivalence classes -> prime faults, with
 *              the shrink ratios (the CI gate requires >= 1.5x);
 *   coverage   detected share of classes and of the uncollapsed
 *              universe under the seeded mixed-length pattern pool;
 *   speed      faults/sec graded serially vs word-parallel on the
 *              same trace, and the speedup (the CI gate requires
 *              >= 20x);
 *   agreement  randomized serial cross-check of lane verdicts, which
 *              must agree 100%.
 *
 * The report writes BENCH_E16.json (override with --json <path>;
 * --smoke shrinks the timing sample counts for CI).
 */

#include "bench/bench_common.hh"

#include <algorithm>
#include <chrono>
#include <functional>

#include "core/gatechip.hh"
#include "fault/grade.hh"
#include "telemetry/event.hh"

namespace
{

using namespace spm;
using spm::bench::jsonReport;
using spm::bench::smokeMode;

double
secondsOf(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(t1 - t0).count();
}

fault::GradeConfig
gradeConfig()
{
    fault::GradeConfig cfg; // the 1979 prototype chip shape
    cfg.crossCheckSamples = smokeMode() ? 16 : 64;
    return cfg;
}

/** Shared fixture: one captured workload and the collapsed universe. */
struct Fixture
{
    fault::GradeConfig cfg;
    core::GateChip probe;
    fault::CollapseResult collapse;
    std::vector<fault::FaultSite> reps;
    fault::GradedWorkload workload;

    Fixture()
        : cfg(gradeConfig()), probe(cfg.cells, cfg.alphabetBits)
    {
        collapse = fault::collapseFaults(probe.netlist(),
                                         {probe.resultNode()});
        reps = collapse.representativeSites();
        WorkloadGen gen(cfg.seed, cfg.alphabetBits);
        std::vector<Symbol> pattern =
            gen.randomPattern(cfg.patternLen, cfg.wildcardProb);
        std::vector<Symbol> text = gen.textWithPlants(
            cfg.textLen, pattern, cfg.textLen / 3);
        workload = fault::captureWorkload(cfg, std::move(pattern),
                                          std::move(text));
    }

    std::vector<fault::FaultSite> batchOf64() const
    {
        return {reps.begin(),
                reps.begin() +
                    std::min<std::size_t>(64, reps.size())};
    }
};

Fixture &
fixture()
{
    static Fixture f;
    return f;
}

void
printReport()
{
    spm::bench::jsonDefaultPath("BENCH_E16.json");
    bench::banner(
        "E16: chip-scale fault grading",
        "Structural collapsing shrinks the stuck-at universe >= 1.5x;"
        " the 64-wide word-parallel simulator grades >= 20x faster\n"
        "than serial single-fault protocol runs and agrees with them"
        " on every sampled verdict.");

    // Flight dumps (the escape record) go to stderr, keeping the
    // report parseable.
    telem::FlightRecorder::global().setDumpSink(
        [](const std::string &) {});

    Fixture &fx = fixture();

    // Full grading pipeline (collapse, SCOAP, pool, cross-check).
    fault::FaultGrader grader(fx.cfg);
    const fault::GradeReport rep = grader.run();
    std::fputs(rep.renderText(5).c_str(), stdout);

    // Timing: same trace, same faults, serial vs word-parallel.
    const std::vector<fault::FaultSite> batch = fx.batchOf64();
    // Both modes time the same 16 serial faults and 8 warm
    // word-parallel repetitions: the batch's first faults are not
    // typical of it and a first repetition runs cold, so a shorter
    // smoke sample would read a different rate than the full-run
    // baseline it is gated on.
    const std::size_t serialSample = 16;
    const std::size_t wordRepeats = 8;

    const double serialSec = secondsOf([&] {
        for (std::size_t i = 0; i < serialSample; ++i)
            fault::serialDetect(fx.cfg, batch[i % batch.size()],
                                fx.workload);
    });
    const double serialPerFault =
        serialSec / static_cast<double>(serialSample);

    fault::WordFaultSim sim(fx.probe.netlist());
    sim.run(fx.workload.trace, batch, fx.workload.goldenPerOp); // warm-up
    const double wordSec = secondsOf([&] {
        for (std::size_t r = 0; r < wordRepeats; ++r)
            sim.run(fx.workload.trace, batch,
                    fx.workload.goldenPerOp);
    });
    const double wordPerFault = wordSec /
        static_cast<double>(wordRepeats * batch.size());
    const double speedup = wordPerFault > 0
        ? serialPerFault / wordPerFault
        : 0.0;

    std::printf("\nspeed: serial %.0f faults/sec, word-parallel %.0f "
                "faults/sec, speedup x%.1f\n",
                1.0 / serialPerFault, 1.0 / wordPerFault, speedup);

    jsonReport().set("faultgrade.cells",
                     static_cast<double>(fx.cfg.cells));
    jsonReport().set("faultgrade.bits",
                     static_cast<double>(fx.cfg.alphabetBits));
    jsonReport().set("faultgrade.sites",
                     static_cast<double>(rep.collapse.totalSites));
    jsonReport().set("faultgrade.classes",
                     static_cast<double>(rep.collapse.classCount));
    jsonReport().set("faultgrade.primes",
                     static_cast<double>(rep.collapse.primeCount));
    jsonReport().set("faultgrade.collapse_ratio",
                     rep.collapse.simRatio());
    jsonReport().set("faultgrade.prime_ratio",
                     rep.collapse.primeRatio());
    jsonReport().set("faultgrade.class_coverage_pct",
                     rep.classCoverage());
    jsonReport().set("faultgrade.site_coverage_pct",
                     rep.siteCoverage());
    jsonReport().set("faultgrade.cross_checked",
                     static_cast<double>(rep.crossChecked));
    jsonReport().set("faultgrade.cross_check_agrees",
                     rep.crossCheckMismatches == 0 ? "yes" : "NO");
    jsonReport().set("faultgrade.serial_faults_per_sec",
                     1.0 / serialPerFault);
    jsonReport().set("faultgrade.word_faults_per_sec",
                     1.0 / wordPerFault);
    jsonReport().set("faultgrade.word_speedup", speedup);
}

void
BM_serialSingleFault(benchmark::State &state)
{
    Fixture &fx = fixture();
    const std::vector<fault::FaultSite> batch = fx.batchOf64();
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(fault::serialDetect(
            fx.cfg, batch[i++ % batch.size()], fx.workload));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations()));
}
BENCHMARK(BM_serialSingleFault)->Unit(benchmark::kMillisecond);

void
BM_wordBatch64(benchmark::State &state)
{
    Fixture &fx = fixture();
    const std::vector<fault::FaultSite> batch = fx.batchOf64();
    fault::WordFaultSim sim(fx.probe.netlist());
    for (auto _ : state) {
        benchmark::DoNotOptimize(sim.run(
            fx.workload.trace, batch, fx.workload.goldenPerOp));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(
        state.iterations() * batch.size()));
}
BENCHMARK(BM_wordBatch64)->Unit(benchmark::kMillisecond);

} // namespace

SPM_BENCH_MAIN(printReport)
