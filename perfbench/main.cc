/**
 * @file
 * The serving benchmark program.
 *
 *   spm_perfbench --workload <long_scan|short_batch|dict_stream|paper_chip>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    [--tiny] [--spans-out <file>] [--git-sha <sha>]
 *
 * --trace 0 runs the workload closed-loop and prints the end-to-end
 * metrics. --trace 1 runs it once untraced and once traced (the
 * difference is the tracing overhead), then probes the layers under
 * every workload and prints the per-layer metrics. Either way the
 * last line of standard output is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * The exit code is 1 when any call failed or disagreed with its
 * oracle, 2 on a usage error.
 */

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/simdpar.hh"
#include "layers.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20;
    bool trace = false;
    bool tiny = false;
    std::string spansOut;
    std::string gitSha = "unknown";
};

struct Metric
{
    std::string name;
    std::string unit;
    double value;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "spm_perfbench: %s\nusage: spm_perfbench --workload "
                 "<long_scan|short_batch|dict_stream|paper_chip> --seed <n> "
                 "--seconds <s> --trace <0|1> [--tiny] [--spans-out <file>] "
                 "[--git-sha <sha>]\n",
                 why.c_str());
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--tiny") {
            o.tiny = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload")
                o.workload = v;
            else if (a == "--seed")
                o.seed = std::stoull(v);
            else if (a == "--seconds")
                o.seconds = std::stod(v);
            else if (a == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (a == "--spans-out")
                o.spansOut = v;
            else if (a == "--git-sha")
                o.gitSha = v;
            else
                usage("unknown argument " + a);
        } catch (const std::logic_error &) {
            usage("bad value '" + v + "' for " + a);
        }
    }
    if (std::find(std::begin(workloadNames), std::end(workloadNames),
                  o.workload) == std::end(workloadNames))
        usage("unknown workload '" + o.workload + "'");
    if (!(o.seconds > 0))
        usage("--seconds must be positive");
    return o;
}

std::string
compilerName()
{
#if defined(__clang__)
    return std::string("clang-") + __clang_version__;
#elif defined(__GNUC__)
    return std::string("gcc-") + __VERSION__;
#else
    return "unknown";
#endif
}

void
printHost(const Options &o)
{
    std::printf("host: nproc=%ld simd=%s compiler=%s build_type=%s "
                "git_sha=%s\n",
                sysconf(_SC_NPROCESSORS_ONLN),
                spm::core::simdIsaName(spm::core::bestSimdIsa()),
                compilerName().c_str(), PERFBENCH_BUILD_TYPE,
                o.gitSha.c_str());
}

/** FNV-1a over the workload's first generated input. */
std::uint64_t
inputDigest(const std::string &workload, const Sizes &sz, std::uint64_t seed)
{
    std::vector<Text> parts;
    if (workload == "long_scan") {
        auto r = longScanRequest(sz, seed, 0);
        parts = {r.pattern, r.text};
    } else if (workload == "short_batch") {
        for (const auto &r : shortBatchCall(sz, seed, 0,
                                            batchPatternPool(sz, seed))) {
            parts.push_back(r.pattern);
            parts.push_back(r.text);
        }
    } else if (workload == "dict_stream") {
        const auto dict = dictionary(sz, seed);
        parts = dict;
        parts.push_back(dictChunk(sz, seed, 0, dict));
    } else {
        auto r = chipRequest(sz, seed, 0);
        parts = {r.pattern, r.text};
    }
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const Text &t : parts)
        for (Symbol s : t)
            h = (h ^ s) * 0x100000001b3ULL;
    return h;
}

double
quantile(std::vector<double> v, double q)
{
    std::sort(v.begin(), v.end());
    const std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(v.size())));
    return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The calls and set-ups the timing metrics read. The client moves to
 * another CPU every rotation slot (CpuRotor in workloads.cc), and each
 * slot is scored by a fixed host probe that runs no code under test.
 * The quietShare of slots with the fastest probe are kept. Slots are
 * chosen without looking at the calls in them, so a slow call or stall
 * of the program is as likely to land in a kept slot as in a dropped
 * one.
 */
struct QuietCalls
{
    std::vector<double> ns;
    std::vector<double> setupNs;
    double chars = 0;
    double totalNs = 0;
    std::size_t slots = 0;
    std::size_t kept = 0;
    double keptProbeNs = 0;    ///< median probe time of the kept slots
    double droppedProbeNs = 0; ///< and of the dropped ones
};

constexpr double quietShare = 0.25;

QuietCalls
quietCalls(const E2EResult &r)
{
    // Slots that booked calls, ranked by their probe time.
    std::vector<std::size_t> ranked;
    for (std::size_t s = 0; s < r.slots.size(); ++s) {
        const std::size_t end = s + 1 < r.slots.size()
                                    ? r.slots[s + 1].firstCall
                                    : r.callNs.size();
        if (end > r.slots[s].firstCall)
            ranked.push_back(s);
    }
    std::sort(ranked.begin(), ranked.end(), [&](std::size_t a, std::size_t b) {
        return r.slots[a].probeNs < r.slots[b].probeNs;
    });
    QuietCalls q;
    q.slots = ranked.size();
    q.kept = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(q.slots * quietShare)));
    std::vector<double> keptProbe, droppedProbe;
    for (std::size_t i = 0; i < ranked.size(); ++i) {
        const std::size_t s = ranked[i];
        const SlotRecord &slot = r.slots[s];
        (i < q.kept ? keptProbe : droppedProbe).push_back(slot.probeNs);
        if (i >= q.kept)
            continue;
        const bool last = s + 1 == r.slots.size();
        const std::size_t callEnd =
            last ? r.callNs.size() : r.slots[s + 1].firstCall;
        const std::size_t setupEnd =
            last ? r.setupNs.size() : r.slots[s + 1].firstSetup;
        q.ns.insert(q.ns.end(), r.callNs.begin() + slot.firstCall,
                    r.callNs.begin() + static_cast<std::ptrdiff_t>(callEnd));
        q.setupNs.insert(
            q.setupNs.end(), r.setupNs.begin() + slot.firstSetup,
            r.setupNs.begin() + static_cast<std::ptrdiff_t>(setupEnd));
        q.chars += slot.chars;
        q.totalNs += slot.callNs;
    }
    if (q.setupNs.empty())
        q.setupNs.assign(r.setupNs.begin(), r.setupNs.end());
    q.keptProbeNs = median(keptProbe);
    q.droppedProbeNs = droppedProbe.empty() ? 0 : median(droppedProbe);
    return q;
}

std::vector<Metric>
endToEnd(const E2EResult &r, const QuietCalls &q)
{
    return {
        {"throughput_mchars_s", "Mchars/s", q.chars * 1e3 / q.totalNs},
        {"latency_p50_ms", "ms", quantile(q.ns, 0.50) / 1e6},
        {"latency_p99_ms", "ms", quantile(q.ns, 0.99) / 1e6},
        {"setup_s", "s", median(q.setupNs) / 1e9},
        {"mem_peak_mb", "MB", r.peakRssMb},
        {"sim_beats_per_char", "beats/char",
         static_cast<double>(r.beats) / static_cast<double>(r.chars)},
    };
}

/** The timing metrics over every call and set-up of the run. */
QuietCalls
allCalls(const E2EResult &r)
{
    QuietCalls q;
    q.ns.assign(r.callNs.begin(), r.callNs.end());
    q.setupNs.assign(r.setupNs.begin(), r.setupNs.end());
    for (const SlotRecord &s : r.slots) {
        q.chars += s.chars;
        q.totalNs += s.callNs;
    }
    return q;
}

void
printEndToEnd(const std::string &label, const E2EResult &r,
              const QuietCalls &q, const std::vector<Metric> &ms)
{
    for (const Metric &m : ms)
        std::printf("%-8s %-24s %14.6g %s\n", label.c_str(), m.name.c_str(),
                    m.value, m.unit.c_str());
    std::printf("%-8s latency samples: %zu of %llu calls, and %zu of %zu "
                "set-ups, from the %zu of %zu CPU slots with the fastest "
                "host probe (median %.1f us kept, %.1f us dropped)\n",
                label.c_str(), q.ns.size(),
                static_cast<unsigned long long>(r.attempted),
                q.setupNs.size(), r.setupNs.size(), q.kept, q.slots,
                q.keptProbeNs / 1e3, q.droppedProbeNs / 1e3);
    const std::vector<Metric> all = endToEnd(r, allCalls(r));
    std::printf("%-8s over all calls:", label.c_str());
    for (std::size_t i = 0; i < 4; ++i)
        std::printf(" %s %.6g", all[i].name.c_str(), all[i].value);
    std::printf("\n");
    std::printf("%-8s failed_frac %.6g (%llu failed, %llu oracle "
                "mismatches)\n",
                label.c_str(),
                static_cast<double>(r.failed) /
                    static_cast<double>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.mismatched));
}

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const std::vector<Metric> &ms)
{
    std::string json = std::string("{\"correct\": ") +
                       (correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(attempted) +
                       ", \"failed\": " + std::to_string(failed) +
                       ", \"metrics\": {";
    char buf[96];
    for (std::size_t i = 0; i < ms.size(); ++i) {
        if (!std::isfinite(ms[i].value))
            throw std::runtime_error("metric " + ms[i].name +
                                     " is not finite");
        std::snprintf(buf, sizeof buf, "%.17g", ms[i].value);
        json += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + buf +
                ", \"unit\": \"" + ms[i].unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
}

int
runPlain(const Options &o, const Sizes &sz)
{
    const E2EResult r = runWorkload(o.workload, sz, o.seed, o.seconds, nullptr);
    const QuietCalls q = quietCalls(r);
    const std::vector<Metric> ms = endToEnd(r, q);
    printEndToEnd(o.workload, r, q, ms);
    printResult(r.failed == 0, r.attempted, r.failed, ms);
    return r.failed == 0 ? 0 : 1;
}

void
writeSpans(const std::string &path, const std::vector<const Tracer *> &all)
{
    std::string out;
    for (const Tracer *t : all)
        t->appendJsonLines(out);
    std::ofstream f(path, std::ios::trunc);
    f << out;
    if (!f)
        throw std::runtime_error("cannot write spans to " + path);
    std::printf("spans: %zu bytes written to %s\n", out.size(), path.c_str());
}

int
runTraced(const Options &o, const Sizes &sz)
{
    // A quarter of the budget each for the untraced and the traced
    // end-to-end run, half for the layer probes.
    const double e2eSeconds = o.seconds * 0.25;
    const double probeSeconds = o.seconds * 0.5 / std::size(workloadNames);

    const E2EResult plain =
        runWorkload(o.workload, sz, o.seed, e2eSeconds, nullptr);
    Tracer e2eTrace(o.workload + ".end_to_end");
    const E2EResult traced =
        runWorkload(o.workload, sz, o.seed, e2eSeconds, &e2eTrace);
    const QuietCalls qa = quietCalls(plain), qb = quietCalls(traced);
    const std::vector<Metric> a = endToEnd(plain, qa), b = endToEnd(traced, qb);
    printEndToEnd("untraced", plain, qa, a);
    printEndToEnd("traced", traced, qb, b);
    std::printf("tracing overhead on %s (traced minus untraced):\n",
                o.workload.c_str());
    for (std::size_t i = 0; i < 3; ++i)
        std::printf("  %-24s %+12.6g %s (%+.2f%%)\n", a[i].name.c_str(),
                    b[i].value - a[i].value, a[i].unit.c_str(),
                    100.0 * (b[i].value - a[i].value) / a[i].value);

    std::vector<Tracer> tracers;
    for (const char *w : workloadNames)
        tracers.emplace_back(w);
    std::vector<LayerMetric> layers;
    for (Tracer &t : tracers) {
        auto ms = probeLayers(t.name(), sz, o.seed, probeSeconds, t);
        layers.insert(layers.end(), ms.begin(), ms.end());
    }

    std::printf("per-layer metrics (layer metric -> end-to-end metric it "
                "should move, on workload):\n");
    for (const LayerMetric &m : layers)
        std::printf("  %-42s %14.6g %-10s -> %s @ %s\n", m.name.c_str(),
                    m.value, m.unit.c_str(), m.moves.c_str(),
                    m.workload.c_str());
    std::printf("per-layer self time in the probes (ms, share):\n");
    for (const Tracer &t : tracers) {
        const auto self = t.selfNsByLayer();
        double total = 0;
        for (const auto &[layer, ns] : self)
            total += ns;
        std::printf("  %-12s", t.name().c_str());
        for (const auto &[layer, ns] : self)
            std::printf("  %s %.1f (%.1f%%)", layer.c_str(), ns / 1e6,
                        100.0 * ns / total);
        std::printf("\n");
    }

    if (!o.spansOut.empty()) {
        std::vector<const Tracer *> all{&e2eTrace};
        for (const Tracer &t : tracers)
            all.push_back(&t);
        writeSpans(o.spansOut, all);
    }

    std::vector<Metric> ms;
    for (const LayerMetric &m : layers)
        ms.push_back({m.name, m.unit, m.value});
    const std::uint64_t failed = plain.failed + traced.failed;
    printResult(failed == 0, plain.attempted + traced.attempted, failed, ms);
    return failed == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    const Sizes sz = o.tiny ? Sizes::tiny() : Sizes{};
    printHost(o);
    std::printf("inputs: workload=%s seed=%llu digest=%016llx%s\n",
                o.workload.c_str(), static_cast<unsigned long long>(o.seed),
                static_cast<unsigned long long>(
                    inputDigest(o.workload, sz, o.seed)),
                o.tiny ? " (tiny)" : "");
    try {
        return o.trace ? runTraced(o, sz) : runPlain(o, sz);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "spm_perfbench: %s\n", e.what());
        return 1;
    }
}
