#include "conformance/harness.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>

#include "conformance/casegen.hh"
#include "conformance/goldentrace.hh"
#include "conformance/mutants.hh"
#include "conformance/oracles.hh"
#include "conformance/shrink.hh"
#include "core/reference.hh"
#include "extensions/counting.hh"
#include "extensions/numarray.hh"
#include "telemetry/event.hh"
#include "telemetry/telem.hh"

namespace spm::conformance
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Shrink a disagreement and file the failure. */
void
fileFailure(RunReport &report, const Case &c, const std::string &found_id,
            const Disagreement &d, std::vector<Oracle> &oracles,
            std::size_t oracle_pos, std::size_t shrink_budget)
{
    Failure f;
    f.oracle = d.oracle;
    f.foundId = found_id;
    f.detail = d.summary();
    const ShrinkResult s = shrinkCase(
        c,
        [&](const Case &candidate) {
            return stillFails(candidate, oracles, oracle_pos);
        },
        shrink_budget);
    f.shrunkId = encodeLiteral(s.minimized);

    // Leave a breadcrumb in the global flight recorder: the dump
    // carries the shrunk case next to whatever the services were
    // doing when the disagreement surfaced; the summary names the
    // oracle.
    telem::EventRecord ev{.kind = telem::EventKind::ConformanceFailure};
    ev.caseRef = telem::CaseRef(0, s.minimized.bits, s.minimized.pattern,
                                s.minimized.text);
    ev.setDetail(d.summary());
    telem::FlightRecorder::global().trip("conformance disagreement",
                                         std::move(ev));

    report.failures.push_back(std::move(f));
}

/** Why decodeCase() refused @p id (a "ref:" carries no symbols). */
const char *
undecodableReason(const std::string &id)
{
    return id.rfind("ref:", 0) == 0 ? "case reference, not replayable"
                                    : "malformed case ID";
}

/** Position of the named oracle in the registry. */
std::size_t
oraclePos(const std::vector<Oracle> &oracles, const std::string &name)
{
    for (std::size_t i = 0; i < oracles.size(); ++i)
        if (oracles[i].name() == name)
            return i;
    return 0;
}

/** Extension eligibility: engine-simulated arrays, keep them small. */
bool
extensionEligible(const Case &c)
{
    return !c.pattern.empty() && !c.text.empty() &&
           c.pattern.size() <= c.text.size() &&
           c.text.size() <= 192 && c.pattern.size() <= 64;
}

/**
 * Cross-check the counting extension: the systolic totals must equal
 * the reference counts and a scalar recount, and for every complete
 * window count == k must coincide with the match bit.
 */
void
checkCounting(RunReport &report, const Case &c,
              const std::string &found_id)
{
    const std::size_t n = c.text.size();
    const std::size_t k = c.pattern.size();
    const std::vector<unsigned> sys =
        ext::SystolicMatchCounter().count(c.text, c.pattern);
    const std::vector<unsigned> ref =
        core::referenceMatchCounts(c.text, c.pattern);

    // Independent scalar recount, straight from the S3.4 definition.
    std::vector<unsigned> scalar(n, 0);
    for (std::size_t i = k - 1; i < n; ++i) {
        unsigned total = 0;
        for (std::size_t j = 0; j < k; ++j) {
            const Symbol p = c.pattern[j];
            total += (p == wildcardSymbol ||
                      p == c.text[i - (k - 1) + j])
                         ? 1u
                         : 0u;
        }
        scalar[i] = total;
    }

    core::ReferenceMatcher matcher;
    const BitVec bits = matcher.match(c.text, c.pattern);

    auto fail = [&](const std::string &detail) {
        Failure f;
        f.oracle = "ext-counting";
        f.foundId = found_id;
        f.shrunkId = encodeLiteral(c);
        f.detail = detail;
        report.failures.push_back(std::move(f));
    };

    for (std::size_t i = 0; i < n; ++i) {
        if (sys[i] != ref[i] || sys[i] != scalar[i]) {
            fail("count[" + std::to_string(i) + "] systolic " +
                 std::to_string(sys[i]) + ", reference " +
                 std::to_string(ref[i]) + ", scalar recount " +
                 std::to_string(scalar[i]));
            return;
        }
        const bool full = i >= k - 1 && sys[i] == k;
        if (full != bits.get(i)) {
            fail("count[" + std::to_string(i) + "] = " +
                 std::to_string(sys[i]) + " (k = " +
                 std::to_string(k) + ") inconsistent with match bit " +
                 (bits.get(i) ? "1" : "0"));
            return;
        }
    }
}

/**
 * Cross-check the numeric extension: the systolic convolution of the
 * case's streams (centered into signed values, wild cards as 0)
 * against a double-precision direct evaluation.
 */
void
checkConvolution(RunReport &report, const Case &c,
                 const std::string &found_id)
{
    const std::int64_t center = std::int64_t(1)
                                << (c.bits > 0 ? c.bits - 1 : 0);
    std::vector<std::int64_t> signal, weights;
    signal.reserve(c.text.size());
    weights.reserve(c.pattern.size());
    for (const Symbol s : c.text)
        signal.push_back(static_cast<std::int64_t>(s) - center);
    for (const Symbol p : c.pattern)
        weights.push_back(
            p == wildcardSymbol
                ? 0
                : static_cast<std::int64_t>(p) - center);

    const std::vector<std::int64_t> sys =
        ext::SystolicFir().convolve(signal, weights);

    const std::size_t out_len = signal.size() + weights.size() - 1;
    if (sys.size() != out_len) {
        Failure f;
        f.oracle = "ext-convolve";
        f.foundId = found_id;
        f.shrunkId = encodeLiteral(c);
        f.detail = "convolution length " + std::to_string(sys.size()) +
                   " != " + std::to_string(out_len);
        report.failures.push_back(std::move(f));
        return;
    }
    for (std::size_t i = 0; i < out_len; ++i) {
        double expect = 0.0;
        for (std::size_t j = 0; j < weights.size(); ++j) {
            if (i < j || i - j >= signal.size())
                continue;
            expect += static_cast<double>(weights[j]) *
                      static_cast<double>(signal[i - j]);
        }
        // The systolic array is exact in int64; the double reference
        // carries rounding once |expect| crosses 2^53, so compare
        // with a relative fixed-point tolerance.
        const double tol =
            std::max(0.5, std::fabs(expect) * 1e-12);
        if (std::fabs(static_cast<double>(sys[i]) - expect) > tol) {
            Failure f;
            f.oracle = "ext-convolve";
            f.foundId = found_id;
            f.shrunkId = encodeLiteral(c);
            f.detail = "convolution[" + std::to_string(i) +
                       "] systolic " + std::to_string(sys[i]) +
                       " vs double reference " + std::to_string(expect);
            report.failures.push_back(std::move(f));
            return;
        }
    }
}

/** Golden-trace eligibility: three engine runs per case, keep small. */
bool
goldenEligible(const Case &c)
{
    return !c.pattern.empty() && !c.text.empty() &&
           c.pattern.size() <= c.text.size() && c.text.size() <= 72 &&
           c.pattern.size() <= 10;
}

/** Blank the first k-1 valid result samples (incomplete windows). */
void
maskLeadingResults(GoldenTrace &t, std::size_t k)
{
    std::size_t seen = 0;
    for (PortSample &s : t.ports) {
        if (!s.resValid)
            continue;
        if (seen + 1 >= k)
            return;
        s.resValue = false;
        ++seen;
    }
}

/**
 * Diff the behavioral, cascade, and bit-serial fidelities beat by
 * beat on one case.
 */
void
checkGoldenTraces(RunReport &report, const Case &c,
                  const std::string &found_id)
{
    const std::size_t k = c.pattern.size();
    const std::size_t cells = k + (k % 2); // even, for a 2-chip split

    auto fail = [&](const std::string &leg, const std::string &detail) {
        Failure f;
        f.oracle = leg;
        f.foundId = found_id;
        f.shrunkId = encodeLiteral(c);
        f.detail = detail;
        report.failures.push_back(std::move(f));
    };

    const GoldenTrace behavioral = traceBehavioral(c, cells);
    const GoldenTrace cascade = traceCascade(c, 2, cells / 2);
    const TraceDiff exact = diffExact(behavioral, cascade);
    if (!exact.identical) {
        fail("golden-cascade", exact.detail);
        return;
    }

    GoldenTrace beh_k =
        cells == k ? behavioral : traceBehavioral(c, k);
    GoldenTrace bitserial = traceBitSerial(c);
    // Incomplete windows (i < k-1) carry unspecified raw values and
    // both matchers mask them; mask them here too before diffing.
    maskLeadingResults(beh_k, k);
    maskLeadingResults(bitserial, k);
    const TraceDiff serial = diffResultStream(beh_k, bitserial);
    if (!serial.identical)
        fail("golden-bitserial", serial.detail);
}

/** The per-case body shared by fuzz, replay, and corpus runs. */
void
runOneCase(RunReport &report, const Case &c, const std::string &found_id,
           std::uint64_t index, std::vector<Oracle> &oracles,
           const HarnessConfig &cfg, bool force_side_legs)
{
    SPM_TSPAN("conformance.case", telem::cat::conformance, 0, index);
    const CaseResult r = runCase(c, oracles, index);
    ++report.casesRun;
    report.comparisons += r.oraclesRun - 1;
    report.skipped += r.oraclesSkipped;
    for (const Disagreement &d : r.disagreements)
        fileFailure(report, c, found_id, d, oracles,
                    oraclePos(oracles, d.oracle), cfg.maxShrinkEvals);

    const bool ext_turn =
        force_side_legs || index % cfg.extensionStride == 0;
    if (cfg.withExtensions && ext_turn && extensionEligible(c)) {
        ++report.extensionChecks;
        checkCounting(report, c, found_id);
        checkConvolution(report, c, found_id);
    }

    const bool golden_turn =
        force_side_legs || index % cfg.goldenStride == 0;
    if (cfg.withGoldenTraces && golden_turn && goldenEligible(c)) {
        ++report.goldenTraceRuns;
        checkGoldenTraces(report, c, found_id);
    }
}

} // namespace

std::string
Failure::report() const
{
    std::string s = "FAIL [" + oracle + "]\n";
    s += "  found:  " + foundId + "\n";
    s += "  shrunk: " + shrunkId + "\n";
    s += "  " + detail + "\n";
    s += "  replay: conformance_fuzz --replay '" + shrunkId + "'";
    return s;
}

/**
 * The registry for one run: the full set, narrowed to the focus
 * substring when one is configured. The reference (entry 0) always
 * stays -- a focused run still needs the trusted answer.
 */
static std::vector<Oracle>
oraclesFor(const HarnessConfig &cfg)
{
    std::vector<Oracle> oracles = makeAllOracles(cfg.withGate);
    if (cfg.focus.empty())
        return oracles;
    std::vector<Oracle> kept;
    for (std::size_t i = 0; i < oracles.size(); ++i)
        if (i == 0 ||
            oracles[i].name().find(cfg.focus) != std::string::npos)
            kept.push_back(std::move(oracles[i]));
    return kept;
}

RunReport
runFuzz(const HarnessConfig &cfg)
{
    const auto start = Clock::now();
    RunReport report;
    std::vector<Oracle> oracles = oraclesFor(cfg);
    const CaseGen gen(cfg.seed);

    for (std::uint64_t i = 0; i < cfg.cases; ++i) {
        if (cfg.timeBudgetSec > 0 && (i & 63) == 0 &&
            secondsSince(start) > cfg.timeBudgetSec) {
            report.timedOut = true;
            break;
        }
        const CaseSpec spec = gen.specAt(i);
        runOneCase(report, materializeSpec(spec), encodeSpec(spec), i,
                   oracles, cfg, false);
    }
    report.seconds = secondsSince(start);
    return report;
}

RunReport
replayCase(const std::string &id, const HarnessConfig &cfg)
{
    const auto start = Clock::now();
    RunReport report;
    const std::optional<Case> c = decodeCase(id);
    if (!c) {
        Failure f;
        f.oracle = "replay";
        f.foundId = id;
        f.detail = undecodableReason(id);
        report.failures.push_back(std::move(f));
        report.seconds = secondsSince(start);
        return report;
    }
    std::vector<Oracle> oracles = oraclesFor(cfg);
    runOneCase(report, *c, id, 0, oracles, cfg, true);
    report.seconds = secondsSince(start);
    return report;
}

RunReport
runCorpus(const std::string &path, const HarnessConfig &cfg)
{
    namespace fs = std::filesystem;
    const auto start = Clock::now();
    RunReport report;
    std::vector<Oracle> oracles = oraclesFor(cfg);

    std::vector<fs::path> files;
    if (fs::is_directory(path)) {
        for (const auto &entry : fs::directory_iterator(path))
            if (entry.is_regular_file())
                files.push_back(entry.path());
        std::sort(files.begin(), files.end());
    } else {
        files.emplace_back(path);
    }

    for (const fs::path &file : files) {
        std::ifstream in(file);
        if (!in) {
            Failure f;
            f.oracle = "corpus";
            f.foundId = file.string();
            f.detail = "unreadable corpus file";
            report.failures.push_back(std::move(f));
            continue;
        }
        std::string line;
        while (std::getline(in, line)) {
            const std::size_t begin =
                line.find_first_not_of(" \t\r");
            if (begin == std::string::npos || line[begin] == '#')
                continue;
            const std::size_t end = line.find_last_not_of(" \t\r");
            const std::string id =
                line.substr(begin, end - begin + 1);
            const std::optional<Case> c = decodeCase(id);
            if (!c) {
                Failure f;
                f.oracle = "corpus";
                f.foundId = file.filename().string() + ": " + id;
                f.detail = undecodableReason(id);
                report.failures.push_back(std::move(f));
                continue;
            }
            runOneCase(report, *c, id, 0, oracles, cfg, true);
        }
    }
    report.seconds = secondsSince(start);
    return report;
}

bool
MutationReport::allCaught() const
{
    return survivors() == 0 && !outcomes.empty();
}

std::size_t
MutationReport::survivors() const
{
    std::size_t n = 0;
    for (const MutantOutcome &o : outcomes)
        n += o.caught ? 0 : 1;
    return n;
}

MutationReport
runMutationSelfCheck(std::uint64_t seed, std::uint64_t cases_per_mutant)
{
    const auto start = Clock::now();
    MutationReport report;

    for (const Mutant &m : allMutants()) {
        MutantOutcome outcome;
        outcome.name = m.name;
        outcome.seededBug = m.seededBug;

        // The mutant is the sole device under test: registry entry 0
        // stays the reference, entry 1 is the seeded bug.
        std::vector<Oracle> oracles;
        oracles.push_back(Oracle{
            std::make_unique<core::ReferenceMatcher>(), 1 << 20,
            1 << 12, 16, 1});
        oracles.push_back(Oracle{m.make(), 1 << 20, 1 << 12, 16, 1});

        const CaseGen gen(seed ^ 0xA5A5A5A5u);
        for (std::uint64_t i = 0; i < cases_per_mutant; ++i) {
            const CaseSpec spec = gen.specAt(i);
            const Case c = materializeSpec(spec);
            ++outcome.casesTried;
            if (!stillFails(c, oracles, 1))
                continue;
            outcome.caught = true;
            outcome.catchingId = encodeSpec(spec);
            const ShrinkResult s = shrinkCase(
                c,
                [&](const Case &candidate) {
                    return stillFails(candidate, oracles, 1);
                });
            outcome.shrunkId = encodeLiteral(s.minimized);
            break;
        }
        report.outcomes.push_back(std::move(outcome));
    }
    report.seconds = secondsSince(start);
    return report;
}

} // namespace spm::conformance
