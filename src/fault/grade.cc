#include "fault/grade.hh"

#include <algorithm>
#include <cstdio>

#include "core/gatechip.hh"
#include "telemetry/event.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace spm::fault
{

using core::GateChip;
using core::GateLevelMatcher;

double
GradeReport::classCoverage() const
{
    return collapse.classCount == 0
        ? 100.0
        : 100.0 * static_cast<double>(detectedClasses) /
            static_cast<double>(collapse.classCount);
}

double
GradeReport::siteCoverage() const
{
    return collapse.totalSites == 0
        ? 100.0
        : 100.0 * static_cast<double>(detectedSites) /
            static_cast<double>(collapse.totalSites);
}

std::string
GradeReport::renderText(std::size_t top) const
{
    char line[256];
    std::string out;
    out += "fault grading report\n";
    std::snprintf(line, sizeof line,
                  "  chip: nodes=%zu devices=%zu transistors=%u\n",
                  nodes, devices, transistors);
    out += line;
    std::snprintf(line, sizeof line,
                  "  universe: %zu sites -> %zu classes (x%.2f) -> "
                  "%zu primes (x%.2f)\n",
                  collapse.totalSites, collapse.classCount,
                  collapse.simRatio(), collapse.primeCount,
                  collapse.primeRatio());
    out += line;
    std::snprintf(line, sizeof line,
                  "  scoap: difficulty mean=%.1f max=%u unreachable=%zu\n",
                  difficultyMean, difficultyMax, unreachableSites);
    out += line;
    std::snprintf(line, sizeof line,
                  "  workloads: %zu, observations=%zu\n", workloads,
                  totalObservations);
    out += line;
    for (std::size_t w = 0; w < workloadDetected.size(); ++w) {
        std::snprintf(line, sizeof line,
                      "    workload %zu: patternLen=%zu detected +%zu\n",
                      w, workloadPatternLen[w], workloadDetected[w]);
        out += line;
    }
    std::snprintf(line, sizeof line,
                  "  coverage: classes %.2f%% (%zu/%zu) sites %.2f%% "
                  "(%zu/%zu)\n",
                  classCoverage(), detectedClasses, collapse.classCount,
                  siteCoverage(), detectedSites, collapse.totalSites);
    out += line;
    std::snprintf(line, sizeof line,
                  "  effort: %llu word batches, %llu word evals\n",
                  static_cast<unsigned long long>(wordBatches),
                  static_cast<unsigned long long>(wordEvals));
    out += line;
    std::snprintf(line, sizeof line,
                  "  cross-check: %zu sampled, %zu mismatches\n",
                  crossChecked, crossCheckMismatches);
    out += line;
    const std::size_t shown = std::min(top, undetected.size());
    std::snprintf(line, sizeof line,
                  "  hardest undetected (%zu of %zu):\n", shown,
                  undetected.size());
    out += line;
    for (std::size_t i = 0; i < shown; ++i) {
        const UndetectedFault &u = undetected[i];
        std::snprintf(line, sizeof line,
                      "    %-24s difficulty=%u class=%u size=%zu\n",
                      u.name.c_str(), u.difficulty, u.classId,
                      u.classSize);
        out += line;
    }
    return out;
}

GradedWorkload
captureWorkload(const GradeConfig &cfg, std::vector<Symbol> pattern,
                std::vector<Symbol> text)
{
    GradedWorkload w;
    w.pattern = std::move(pattern);
    w.text = std::move(text);

    TraceRecorder rec(w.trace);
    GateLevelMatcher matcher(cfg.cells, cfg.alphabetBits);
    matcher.setChipPrep([&](GateChip &chip) {
        rec.begin(chip.netlist(), chip.resultNode(),
                  chip.resultInverted(), w.pattern.size());
        chip.netlist().setTap(&rec);
    });
    matcher.setResultObserver(
        [&](std::size_t index, const GateChip &) { rec.observe(index); });
    w.golden = matcher.match(w.text, w.pattern);

    spm_assert(!w.trace.sawDecay,
               "charge decay during workload capture");
    w.goldenPerOp.reserve(w.trace.observations);
    for (const TraceOp &op : w.trace.ops)
        if (op.kind == TraceOp::Kind::Observe)
            w.goldenPerOp.push_back(w.golden.get(op.index) ? 1 : 0);
    return w;
}

bool
serialDetect(const GradeConfig &cfg, const FaultSite &site,
             const GradedWorkload &workload)
{
    GateLevelMatcher matcher(cfg.cells, cfg.alphabetBits);
    matcher.setChipPrep([&](GateChip &chip) {
        chip.netlist().forceStuckAt(site.node, site.level(), 0);
    });
    return matcher.match(workload.text, workload.pattern) !=
           workload.golden;
}

GradeReport
FaultGrader::run()
{
    spm_assert(cfg.patternLen >= 1 && cfg.patternLen <= cfg.textLen,
               "pattern must fit the text");
    GradeReport rep;

    // A probe chip supplies the netlist structure; every chip the
    // matcher builds for this configuration is constructed by the
    // same deterministic code, so node ids line up with the traces.
    GateChip probe(cfg.cells, cfg.alphabetBits);
    const gate::Netlist &net = probe.netlist();
    rep.nodes = net.nodeCount();
    rep.devices = net.deviceCount();
    rep.transistors = net.transistorCount();

    const std::vector<gate::NodeId> observed{probe.resultNode()};
    rep.collapse = collapseFaults(net, observed);
    const ScoapResult scoap = computeScoap(net, observed);

    // SCOAP summary over the whole universe.
    std::uint64_t finiteSum = 0;
    std::size_t finiteCount = 0;
    for (std::uint32_t s = 0; s < rep.collapse.totalSites; ++s) {
        const std::uint32_t d = scoap.difficulty(FaultSite::fromIndex(s));
        if (d >= scoapUnreachable) {
            ++rep.unreachableSites;
            continue;
        }
        finiteSum += d;
        ++finiteCount;
        rep.difficultyMax = std::max(rep.difficultyMax, d);
    }
    rep.difficultyMean = finiteCount == 0
        ? 0.0
        : static_cast<double>(finiteSum) /
            static_cast<double>(finiteCount);

    // Capture the workload pool fault-free.
    WorkloadGen gen(cfg.seed, cfg.alphabetBits);
    std::vector<GradedWorkload> pool;
    pool.reserve(cfg.workloads);
    for (std::size_t w = 0; w < cfg.workloads; ++w) {
        // Odd pool slots carry window-filling wildcard-free patterns
        // (when mixedLengths): they drive every column's compare
        // chain, which short patterns structurally cannot reach.
        const bool full = cfg.mixedLengths && w % 2 == 1;
        const std::size_t len = full
            ? std::min(cfg.cells, cfg.textLen)
            : cfg.patternLen;
        std::vector<Symbol> pattern =
            gen.randomPattern(len, full ? 0.0 : cfg.wildcardProb);
        std::vector<Symbol> text = gen.textWithPlants(
            cfg.textLen, pattern,
            std::max<std::size_t>(8, cfg.textLen / 3));
        pool.push_back(
            captureWorkload(cfg, std::move(pattern), std::move(text)));
        rep.totalObservations += pool.back().trace.observations;
        rep.workloadPatternLen.push_back(len);
    }
    rep.workloads = pool.size();

    // Simulate class representatives easiest-first: cheap-to-detect
    // classes drop out after the first workload and never cost
    // another lane (classic fault dropping, SCOAP-ordered).
    const std::vector<FaultSite> reps =
        rep.collapse.representativeSites();
    std::vector<std::uint32_t> order(reps.size());
    for (std::uint32_t c = 0; c < order.size(); ++c)
        order[c] = c;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return scoap.difficulty(reps[a]) <
                             scoap.difficulty(reps[b]);
                     });

    WordFaultSim sim(net);
    rep.classDetected.assign(reps.size(), 0);
    for (const GradedWorkload &w : pool) {
        const std::size_t before = rep.detectedClasses;
        std::vector<FaultSite> batch;
        std::vector<std::uint32_t> batchClasses;
        auto flush = [&]() {
            if (batch.empty())
                return;
            const WordFaultSim::BatchResult br =
                sim.run(w.trace, batch, w.goldenPerOp);
            for (std::size_t lane = 0; lane < batch.size(); ++lane) {
                if (!(br.detected & (1ULL << lane)))
                    continue;
                if (!rep.classDetected[batchClasses[lane]])
                    ++rep.detectedClasses;
                rep.classDetected[batchClasses[lane]] = 1;
            }
            ++rep.wordBatches;
            batch.clear();
            batchClasses.clear();
        };
        for (std::uint32_t cls : order) {
            if (rep.classDetected[cls])
                continue; // dropped
            batch.push_back(reps[cls]);
            batchClasses.push_back(cls);
            if (batch.size() == 64)
                flush();
        }
        flush();
        rep.workloadDetected.push_back(rep.detectedClasses - before);
    }
    rep.wordEvals = sim.wordEvals();

    for (std::uint32_t s = 0; s < rep.collapse.totalSites; ++s)
        rep.detectedSites +=
            rep.classDetected[rep.collapse.classOf[s]] ? 1 : 0;
    for (std::uint32_t cls = 0; cls < reps.size(); ++cls) {
        if (rep.classDetected[cls])
            continue;
        UndetectedFault u;
        u.site = reps[cls];
        u.name = u.site.describe(net);
        u.difficulty = scoap.difficulty(u.site);
        u.classId = cls;
        u.classSize = rep.collapse.classMembers(cls).size();
        rep.undetected.push_back(std::move(u));
    }
    std::stable_sort(rep.undetected.begin(), rep.undetected.end(),
                     [](const UndetectedFault &a,
                        const UndetectedFault &b) {
                         return a.difficulty > b.difficulty;
                     });

    // Randomized serial cross-check: the word-parallel verdict for a
    // sampled (class, workload) pair must equal the serial protocol
    // run's. Grading correctness rests on this agreement, so any
    // mismatch trips the flight recorder with the replayable case.
    if (cfg.crossCheckSamples > 0 && !reps.empty() && !pool.empty()) {
        Rng rng(cfg.crossCheckSeed);
        std::vector<std::vector<std::uint32_t>> byWorkload(pool.size());
        for (std::size_t k = 0; k < cfg.crossCheckSamples; ++k) {
            const auto cls = static_cast<std::uint32_t>(
                rng.nextBelow(reps.size()));
            const std::size_t w = rng.nextBelow(pool.size());
            byWorkload[w].push_back(cls);
        }
        for (std::size_t w = 0; w < pool.size(); ++w) {
            const std::vector<std::uint32_t> &classes = byWorkload[w];
            for (std::size_t at = 0; at < classes.size(); at += 64) {
                const std::size_t n =
                    std::min<std::size_t>(64, classes.size() - at);
                std::vector<FaultSite> batch;
                for (std::size_t i = 0; i < n; ++i)
                    batch.push_back(reps[classes[at + i]]);
                const WordFaultSim::BatchResult br = sim.run(
                    pool[w].trace, batch, pool[w].goldenPerOp);
                ++rep.wordBatches;
                for (std::size_t i = 0; i < n; ++i) {
                    const bool word =
                        (br.detected & (1ULL << i)) != 0;
                    const bool serial =
                        serialDetect(cfg, batch[i], pool[w]);
                    ++rep.crossChecked;
                    if (word == serial)
                        continue;
                    ++rep.crossCheckMismatches;
                    telem::EventRecord ev{
                        .kind = telem::EventKind::CrossCheckMismatch,
                        .code = "fault.grade.crosscheck"};
                    ev.caseRef = telem::CaseRef(0, cfg.alphabetBits,
                                                pool[w].pattern,
                                                pool[w].text);
                    ev.setDetail(batch[i].describe(net) + " word=" +
                                 (word ? "detected" : "undetected") +
                                 " serial=" +
                                 (serial ? "detected" : "undetected"));
                    telem::FlightRecorder::global().trip(
                        "fault grading cross-check mismatch",
                        std::move(ev));
                }
            }
        }
        rep.wordEvals = sim.wordEvals();
    }

    // The escape record: an undetected class is a chip that could
    // ship with that defect and still pass this pattern pool, so the
    // hardest escape is dumped replayably.
    if (!rep.undetected.empty() && !pool.empty()) {
        const UndetectedFault &hardest = rep.undetected.front();
        telem::EventRecord ev{.kind = telem::EventKind::Note,
                              .code = "fault.grade.escape"};
        ev.caseRef = telem::CaseRef(0, cfg.alphabetBits,
                                    pool.front().pattern,
                                    pool.front().text);
        char note[160];
        std::snprintf(note, sizeof note,
                      "%zu classes undetected; hardest %s "
                      "difficulty=%u",
                      rep.undetected.size(), hardest.name.c_str(),
                      hardest.difficulty);
        ev.setDetail(note);
        telem::FlightRecorder::global().trip("fault grading escapes",
                                             std::move(ev));
    }

    return rep;
}

} // namespace spm::fault
