/**
 * @file
 * E6 -- Section 3.3.1: the design alternatives, quantified.
 *
 * The paper rejects fast sequential algorithms (dynamic
 * communication, no wild cards), broadcast machines (channel fanout)
 * and static one-directional arrays (loading time). This bench puts
 * numbers on each objection: software wall time, hardware beat
 * counts, loading overhead, and broadcast cost under the RC model.
 */

#include "bench/bench_common.hh"

#include <chrono>
#include <functional>

#include "baselines/boyermoore.hh"
#include "baselines/broadcast.hh"
#include "baselines/fftmatch.hh"
#include "baselines/kmp.hh"
#include "baselines/naive.hh"
#include "baselines/staticarray.hh"
#include "core/behavioral.hh"
#include "core/reference.hh"
#include "util/table.hh"

namespace
{

using namespace spm;
using namespace spm::core;
using namespace spm::baselines;
using spm::bench::makeMatchWorkload;

double
wallMs(const std::function<void()> &fn)
{
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

void
printReport()
{
    spm::bench::banner(
        "E6: algorithm alternatives (Section 3.3.1)",
        "Software baselines vs hardware organizations on one "
        "workload; each row quantifies the objection the paper "
        "raises against that alternative.");

    const std::size_t n = 20000, k = 16;
    const auto wild = makeMatchWorkload(n, k, 4, 0.25);
    const auto exact = makeMatchWorkload(n, k, 4, 0.0, 0xFACE);
    ReferenceMatcher ref;
    const auto want_wild = ref.match(wild.text, wild.pattern);
    const auto want_exact = ref.match(exact.text, exact.pattern);

    Table table("Matchers on n=20000, k+1=16 (software: host wall "
                "time; hardware: simulated beats)");
    table.setHeader({"matcher", "wild cards", "wall ms", "beats",
                     "load beats", "agrees", "paper's objection"});

    auto add_soft = [&](Matcher &m, bool wildcards,
                        const char *objection) {
        const auto &w = wildcards ? wild : exact;
        const auto &want = wildcards ? want_wild : want_exact;
        BitVec got;
        const double ms =
            wallMs([&] { got = m.match(w.text, w.pattern); });
        table.addRowOf(m.name(), wildcards ? "yes" : "no",
                       Table::fixed(ms, 2), "-", "-",
                       got == want ? "yes" : "NO", objection);
    };

    NaiveMatcher naive;
    add_soft(naive, true, "O(nk) comparisons on the host");
    KmpMatcher kmp;
    add_soft(kmp, false,
             "no wild cards; dynamic communication if hardwired");
    BoyerMooreMatcher bm;
    add_soft(bm, false, "no wild cards; data-dependent skips");
    FftMatcher fftm;
    add_soft(fftm, true, "superlinear time (Fischer-Paterson)");

    {
        BroadcastMatcher bc;
        BitVec got;
        const double ms =
            wallMs([&] { got = bc.match(wild.text, wild.pattern); });
        table.addRowOf(
            bc.name(), "yes", Table::fixed(ms, 2), bc.lastBeats(),
            bc.lastLoadBeats(), got == want_wild ? "yes" : "NO",
            "broadcast fanout: beat stretches to " +
                std::to_string(bc.lastCost().stretchedBeatPs(
                                   prototypeBeatPs) /
                               1000) +
                " ns or power x" +
                std::to_string(static_cast<int>(
                    bc.lastCost().driverPowerUnits())));
    }
    {
        StaticArrayMatcher sa;
        BitVec got;
        const double ms =
            wallMs([&] { got = sa.match(wild.text, wild.pattern); });
        table.addRowOf(sa.name(), "yes", Table::fixed(ms, 2),
                       sa.lastBeats(), sa.lastLoadBeats(),
                       got == want_wild ? "yes" : "NO",
                       "static pattern: loading time + circuitry");
    }
    {
        BehavioralMatcher chip(k);
        BitVec got;
        const double ms =
            wallMs([&] { got = chip.match(wild.text, wild.pattern); });
        table.addRowOf(chip.name(), "yes", Table::fixed(ms, 2),
                       chip.lastBeats(), 0,
                       got == want_wild ? "yes" : "NO",
                       "(chosen design: local wiring, no loading)");
    }
    table.print();

    Table fanout("Broadcast channel cost vs array size "
                 "(first-order RC model)");
    fanout.setHeader({"cells", "stretched beat ns",
                      "slowdown vs 250 ns", "driver power units"});
    for (std::size_t cells : {8u, 16u, 64u, 256u}) {
        const BroadcastCost cost{cells};
        const auto ns = cost.stretchedBeatPs(prototypeBeatPs) / 1000;
        fanout.addRowOf(cells, ns,
                        Table::fixed(static_cast<double>(ns) / 250.0,
                                     1),
                        Table::fixed(cost.driverPowerUnits(), 0));
    }
    fanout.print();
    std::printf(
        "\nShape check: only the systolic design combines wild\n"
        "cards, zero loading, and per-beat cost independent of k.\n");
}

void
softwareBaseline(benchmark::State &state)
{
    const auto w = makeMatchWorkload(8192, 16, 4, 0.0, 7);
    std::vector<std::unique_ptr<Matcher>> ms;
    ms.push_back(std::make_unique<NaiveMatcher>());
    ms.push_back(std::make_unique<KmpMatcher>());
    ms.push_back(std::make_unique<BoyerMooreMatcher>());
    ms.push_back(std::make_unique<FftMatcher>());
    Matcher &m = *ms[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        auto r = m.match(w.text, w.pattern);
        benchmark::DoNotOptimize(r);
    }
    state.SetLabel(m.name());
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 8192);
}

BENCHMARK(softwareBaseline)->DenseRange(0, 3);

} // namespace

SPM_BENCH_MAIN(printReport)
