/**
 * @file
 * Shared bench scaffolding: deterministic workloads, the custom main
 * that prints each experiment's report before running the
 * google-benchmark timings, and a machine-readable JSON side channel.
 *
 * Every bench accepts two extra flags ahead of the usual
 * google-benchmark ones:
 *
 *   --smoke        scale the run down for CI: report functions can
 *                  query smokeMode() to shrink their sweeps, and each
 *                  timing benchmark runs exactly one iteration;
 *   --json <path>  after the run, write every value recorded with
 *                  jsonReport() as one flat JSON object to <path>.
 *
 * A bench that should always produce a JSON artifact (E13 writes
 * BENCH_E13.json) sets a default path with jsonDefaultPath().
 */

#ifndef SPM_BENCH_COMMON_HH
#define SPM_BENCH_COMMON_HH

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hh"
#include "util/types.hh"

namespace spm::bench
{

/** Deterministic text + pattern for a given size and wild card mix. */
struct MatchWorkload
{
    std::vector<Symbol> text;
    std::vector<Symbol> pattern;
};

inline MatchWorkload
makeMatchWorkload(std::size_t text_len, std::size_t pattern_len,
                  BitWidth bits, double wildcard_prob,
                  std::uint64_t seed = 0xBE11C4)
{
    WorkloadGen gen(seed, bits);
    MatchWorkload w;
    w.pattern = gen.randomPattern(pattern_len, wildcard_prob);
    w.text = gen.textWithPlants(text_len, w.pattern,
                                pattern_len * 3 + 1);
    return w;
}

/** Print the experiment banner. */
inline void
banner(const char *experiment, const char *claim)
{
    std::printf("\n=== %s ===\n%s\n\n", experiment, claim);
}

/** Flat key -> value report written as one JSON object. */
class JsonReport
{
  public:
    void set(const std::string &key, double value)
    {
        char buf[64];
        if (value == std::floor(value) && std::fabs(value) < 1e15)
            std::snprintf(buf, sizeof(buf), "%.0f", value);
        else
            std::snprintf(buf, sizeof(buf), "%.6g", value);
        put(key, buf);
    }

    void set(const std::string &key, const std::string &value)
    {
        put(key, "\"" + escape(value) + "\"");
    }

    bool empty() const { return items.empty(); }

    /** Render the object with keys in insertion order. */
    std::string render() const
    {
        std::string out = "{\n";
        for (std::size_t i = 0; i < items.size(); ++i) {
            out += "  \"" + escape(items[i].first) +
                   "\": " + items[i].second;
            out += i + 1 < items.size() ? ",\n" : "\n";
        }
        out += "}\n";
        return out;
    }

    bool writeTo(const std::string &path) const
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        if (!f)
            return false;
        const std::string body = render();
        std::fwrite(body.data(), 1, body.size(), f);
        std::fclose(f);
        return true;
    }

  private:
    void put(const std::string &key, std::string rendered)
    {
        for (auto &item : items) {
            if (item.first == key) {
                item.second = std::move(rendered);
                return;
            }
        }
        items.emplace_back(key, std::move(rendered));
    }

    static std::string escape(const std::string &s)
    {
        std::string out;
        out.reserve(s.size());
        for (char c : s) {
            if (c == '"' || c == '\\')
                out += '\\';
            if (c == '\n') {
                out += "\\n";
                continue;
            }
            out += c;
        }
        return out;
    }

    std::vector<std::pair<std::string, std::string>> items;
};

/** The process-wide report every bench records into. */
inline JsonReport &
jsonReport()
{
    static JsonReport report;
    return report;
}

/** Parsed --smoke / --json state (filled by benchMain). */
struct BenchOptions
{
    bool smoke = false;
    std::string jsonPath;
    /** An acceptance verdict of the report failed: the run exits 1. */
    bool failed = false;
};

inline BenchOptions &
benchOptions()
{
    static BenchOptions opts;
    return opts;
}

/** True when the run should be scaled down for CI (--smoke). */
inline bool
smokeMode()
{
    return benchOptions().smoke;
}

/** Record one acceptance verdict; a failed one makes the run exit 1. */
inline bool
acceptance(bool ok)
{
    if (!ok)
        benchOptions().failed = true;
    return ok;
}

/** Where the JSON report goes unless --json overrides it. */
inline void
jsonDefaultPath(const std::string &path)
{
    if (benchOptions().jsonPath.empty())
        benchOptions().jsonPath = path;
}

/**
 * Shared main: strip our flags, report, time, write the JSON. Exits 1
 * when an acceptance() verdict of the report failed.
 */
inline int
benchMain(int argc, char **argv, void (*report_fn)())
{
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--smoke") {
            benchOptions().smoke = true;
        } else if (a == "--json" && i + 1 < argc) {
            benchOptions().jsonPath = argv[++i];
        } else if (a.rfind("--json=", 0) == 0) {
            benchOptions().jsonPath = a.substr(7);
        } else {
            args.push_back(argv[i]);
        }
    }
    // A tiny min time keeps the smoke-mode timing pass fast.
    static char min_time[] = "--benchmark_min_time=0.001";
    if (benchOptions().smoke)
        args.push_back(min_time);

    report_fn();

    int n = static_cast<int>(args.size());
    ::benchmark::Initialize(&n, args.data());
    if (::benchmark::ReportUnrecognizedArguments(n, args.data()))
        return 1;
    ::benchmark::RunSpecifiedBenchmarks();
    ::benchmark::Shutdown();

    const std::string &path = benchOptions().jsonPath;
    if (!path.empty() && !jsonReport().empty()) {
        if (jsonReport().writeTo(path))
            std::printf("JSON report written to %s\n", path.c_str());
        else
            std::fprintf(stderr, "cannot write JSON report to %s\n",
                         path.c_str());
    }
    if (benchOptions().failed)
        std::fprintf(stderr, "an acceptance check of the report failed\n");
    return benchOptions().failed ? 1 : 0;
}

} // namespace spm::bench

/**
 * Each bench defines `void printReport();` and uses this main so the
 * paper-shaped table appears before the timing run.
 */
#define SPM_BENCH_MAIN(report_fn)                                     \
    int                                                               \
    main(int argc, char **argv)                                       \
    {                                                                 \
        return ::spm::bench::benchMain(argc, argv, report_fn);        \
    }

#endif // SPM_BENCH_COMMON_HH
