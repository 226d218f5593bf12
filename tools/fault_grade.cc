/**
 * @file
 * fault_grade: chip-scale stuck-at fault grading from the command
 * line.
 *
 * Builds the configured gate-level chip, collapses its stuck-at
 * universe, scores every site with SCOAP, grades the collapsed
 * classes against a seeded workload pool with the 64-wide
 * word-parallel simulator, and prints the coverage report (or, with
 * --json, a machine-readable object). The undetected-fault list
 * comes back hardest-first with SCOAP difficulties -- the chip's
 * hard-to-test nets.
 *
 * --golden fixes every knob to the committed-reference configuration
 * so the output can be diffed against tests/golden/
 * fault_grade_report.txt by scripts/check.sh, like the trace_view
 * goldens.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "fault/grade.hh"
#include "telemetry/event.hh"
#include "telemetry/metrics.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fputs(
        "usage: fault_grade [options]\n"
        "\n"
        "  --cells N        character cells (default 8, the prototype)\n"
        "  --bits N         bits per character (default 2)\n"
        "  --pattern-len N  pattern length (default 4)\n"
        "  --text-len N     text length per workload (default 48)\n"
        "  --workloads N    pattern/text pairs in the pool (default 4)\n"
        "  --wildcard P     per-position wildcard probability "
        "(default 0.25)\n"
        "  --seed N         workload seed (default 1979)\n"
        "  --cross-check N  sampled serial cross-checks (default 64)\n"
        "  --top N          undetected faults listed (default 10)\n"
        "  --json           print a JSON report instead of text\n"
        "  --golden         fixed reference configuration (for the\n"
        "                   committed golden report)\n"
        "\n"
        "exit status: 0 ok (cross-check agreed), 1 cross-check\n"
        "mismatch, 2 usage error\n",
        out);
}

std::uint64_t
parseNum(const char *flag, const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0') {
        std::fprintf(stderr, "fault_grade: bad value for %s: %s\n",
                     flag, s);
        std::exit(2);
    }
    return v;
}

std::string
jsonReport(const spm::fault::GradeReport &rep, std::size_t top)
{
    char buf[256];
    std::string out = "{\n";
    auto num = [&](const char *key, double v, bool integer) {
        if (integer)
            std::snprintf(buf, sizeof buf, "  \"%s\": %.0f,\n", key, v);
        else
            std::snprintf(buf, sizeof buf, "  \"%s\": %.4f,\n", key, v);
        out += buf;
    };
    num("nodes", static_cast<double>(rep.nodes), true);
    num("devices", static_cast<double>(rep.devices), true);
    num("transistors", rep.transistors, true);
    num("sites", static_cast<double>(rep.collapse.totalSites), true);
    num("classes", static_cast<double>(rep.collapse.classCount), true);
    num("primes", static_cast<double>(rep.collapse.primeCount), true);
    num("collapse_ratio", rep.collapse.simRatio(), false);
    num("prime_ratio", rep.collapse.primeRatio(), false);
    num("difficulty_mean", rep.difficultyMean, false);
    num("difficulty_max", rep.difficultyMax, true);
    num("unreachable_sites",
        static_cast<double>(rep.unreachableSites), true);
    num("workloads", static_cast<double>(rep.workloads), true);
    num("observations", static_cast<double>(rep.totalObservations),
        true);
    num("detected_classes", static_cast<double>(rep.detectedClasses),
        true);
    num("detected_sites", static_cast<double>(rep.detectedSites), true);
    num("class_coverage_pct", rep.classCoverage(), false);
    num("site_coverage_pct", rep.siteCoverage(), false);
    num("word_batches", static_cast<double>(rep.wordBatches), true);
    num("word_evals", static_cast<double>(rep.wordEvals), true);
    num("cross_checked", static_cast<double>(rep.crossChecked), true);
    num("cross_check_mismatches",
        static_cast<double>(rep.crossCheckMismatches), true);
    out += "  \"undetected\": [";
    const std::size_t shown = top < rep.undetected.size()
        ? top
        : rep.undetected.size();
    for (std::size_t i = 0; i < shown; ++i) {
        const spm::fault::UndetectedFault &u = rep.undetected[i];
        std::snprintf(buf, sizeof buf,
                      "%s\n    {\"site\": \"%s\", \"difficulty\": %u, "
                      "\"class_size\": %zu}",
                      i == 0 ? "" : ",", u.name.c_str(), u.difficulty,
                      u.classSize);
        out += buf;
    }
    out += shown == 0 ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    spm::fault::GradeConfig cfg;
    std::size_t top = 10;
    bool json = false;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr,
                             "fault_grade: %s needs a value\n", arg);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--cells") == 0) {
            cfg.cells = parseNum(arg, value());
        } else if (std::strcmp(arg, "--bits") == 0) {
            cfg.alphabetBits =
                static_cast<spm::BitWidth>(parseNum(arg, value()));
        } else if (std::strcmp(arg, "--pattern-len") == 0) {
            cfg.patternLen = parseNum(arg, value());
        } else if (std::strcmp(arg, "--text-len") == 0) {
            cfg.textLen = parseNum(arg, value());
        } else if (std::strcmp(arg, "--workloads") == 0) {
            cfg.workloads = parseNum(arg, value());
        } else if (std::strcmp(arg, "--wildcard") == 0) {
            cfg.wildcardProb = std::atof(value());
        } else if (std::strcmp(arg, "--seed") == 0) {
            cfg.seed = parseNum(arg, value());
        } else if (std::strcmp(arg, "--cross-check") == 0) {
            cfg.crossCheckSamples = parseNum(arg, value());
        } else if (std::strcmp(arg, "--top") == 0) {
            top = parseNum(arg, value());
        } else if (std::strcmp(arg, "--json") == 0) {
            json = true;
        } else if (std::strcmp(arg, "--golden") == 0) {
            cfg = spm::fault::GradeConfig{};
            cfg.textLen = 32;
            cfg.workloads = 2;
            cfg.crossCheckSamples = 16;
            top = 8;
        } else if (std::strcmp(arg, "--help") == 0 ||
                   std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "fault_grade: unknown option %s\n",
                         arg);
            usage(stderr);
            return 2;
        }
    }

    // Flight-recorder dumps (the escape record, any cross-check
    // mismatch) go to stderr so stdout stays diffable.
    spm::telem::FlightRecorder::global().setDumpSink(
        [](const std::string &dump) {
            std::fputs(dump.c_str(), stderr);
            std::fputc('\n', stderr);
        });

    spm::fault::FaultGrader grader(cfg);
    const spm::fault::GradeReport rep = grader.run();

    if (json)
        std::fputs(jsonReport(rep, top).c_str(), stdout);
    else
        std::fputs(rep.renderText(top).c_str(), stdout);

    return rep.crossCheckMismatches == 0 ? 0 : 1;
}
