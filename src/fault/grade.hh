/**
 * @file
 * Chip-scale stuck-at fault grading.
 *
 * FaultGrader ties the pieces into the classic test-engineering
 * pipeline the fabricated prototype would have gone through:
 *
 *   1. structural collapsing (fault/collapse.hh) shrinks the 2-per-
 *      node stuck-at universe to equivalence-class representatives;
 *   2. SCOAP scoring (fault/scoap.hh) ranks every site by detection
 *      difficulty -- easy classes are simulated first so detected
 *      ones drop out of later workloads, and the surviving
 *      undetected list comes back hardest-first with its scores;
 *   3. a pool of seeded match workloads is captured once, fault-free,
 *      as replayable stimulus traces (fault/wordsim.hh);
 *   4. the word-parallel simulator grades 64 representatives per
 *      replay against each trace; a class is detected when any lane
 *      observation differs from the golden protocol output;
 *   5. a randomized sample of (class, workload) verdicts is
 *      cross-checked against serial single-fault protocol runs --
 *      the two paths must agree 100%.
 *
 * Undetected classes are the chip's test escapes: the grader trips
 * the flight recorder with a replayable case ID naming the hardest
 * one, and every count lands in the GradeReport.
 */

#ifndef SPM_FAULT_GRADE_HH
#define SPM_FAULT_GRADE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/collapse.hh"
#include "fault/scoap.hh"
#include "fault/wordsim.hh"
#include "util/bitvec.hh"
#include "util/types.hh"

namespace spm::fault
{

/** Chip shape, workload pool and cross-check policy for one grading. */
struct GradeConfig
{
    std::size_t cells = 8;     ///< array size (the 1979 prototype)
    BitWidth alphabetBits = 2; ///< bits per character
    std::size_t patternLen = 4;
    std::size_t textLen = 48;
    std::size_t workloads = 4; ///< pattern/text pairs in the pool
    double wildcardProb = 0.25;
    /**
     * Alternate the pool between patternLen and full-array-length
     * patterns (without wildcards). Short wildcarded patterns leave
     * the right-hand columns' compare chains unexercised -- the
     * grading report surfaces exactly those nets as hard-to-test --
     * so a production pool mixes in window-filling patterns.
     */
    bool mixedLengths = true;
    std::uint64_t seed = 1979;
    /** (class, workload) verdict pairs re-run serially; 0 disables. */
    std::size_t crossCheckSamples = 64;
    std::uint64_t crossCheckSeed = 7;
};

/** One captured workload: stimulus trace plus golden verdicts. */
struct GradedWorkload
{
    std::vector<Symbol> pattern;
    std::vector<Symbol> text;
    BitVec golden; ///< fault-free protocol output
    InputTrace trace;
    /** golden[op.index] per Observe op, in trace op order. */
    std::vector<std::uint8_t> goldenPerOp;
};

/**
 * Run the fault-free match protocol for (@p pattern, @p text) on the
 * configured chip and capture it as a replayable workload.
 */
GradedWorkload captureWorkload(const GradeConfig &cfg,
                               std::vector<Symbol> pattern,
                               std::vector<Symbol> text);

/**
 * Serial single-fault reference: force @p site stuck, run the full
 * protocol, report whether the output differs from the workload's
 * golden result. This is the path the word simulator must agree with
 * (and the slow baseline bench_e16_faultgrade measures against).
 */
bool serialDetect(const GradeConfig &cfg, const FaultSite &site,
                  const GradedWorkload &workload);

/** One surviving (undetected) fault class, for the escape report. */
struct UndetectedFault
{
    FaultSite site;        ///< class representative
    std::string name;      ///< site.describe() at grade time
    std::uint32_t difficulty = 0; ///< SCOAP detection difficulty
    std::uint32_t classId = 0;
    std::size_t classSize = 0; ///< universe sites sharing the verdict
};

/** Everything one grading run learned. */
struct GradeReport
{
    // Chip structure.
    std::size_t nodes = 0;
    std::size_t devices = 0;
    unsigned transistors = 0;

    CollapseResult collapse;

    // SCOAP summary over the fault universe.
    std::uint32_t difficultyMax = 0; ///< over finite-difficulty sites
    double difficultyMean = 0.0;     ///< over finite-difficulty sites
    std::size_t unreachableSites = 0; ///< saturated difficulty

    // Workload pool.
    std::size_t workloads = 0;
    std::size_t totalObservations = 0;
    /**
     * Classes newly detected by each workload, in pool order -- the
     * pattern-ranking view: a workload detecting nothing new adds no
     * test value against this universe.
     */
    std::vector<std::size_t> workloadDetected;
    std::vector<std::size_t> workloadPatternLen;

    // Grading results (per equivalence class, class id order).
    std::vector<std::uint8_t> classDetected;
    std::size_t detectedClasses = 0;
    std::size_t detectedSites = 0; ///< expanded through the classes
    std::vector<UndetectedFault> undetected; ///< hardest first

    // Effort.
    std::uint64_t wordBatches = 0;
    std::uint64_t wordEvals = 0;

    // Cross-check.
    std::size_t crossChecked = 0;
    std::size_t crossCheckMismatches = 0;

    /** Detected share of equivalence classes, %. */
    double classCoverage() const;
    /** Detected share of the uncollapsed universe, %. */
    double siteCoverage() const;

    /**
     * The deterministic human-readable report (tools/fault_grade and
     * the committed golden); lists at most @p top undetected faults.
     */
    std::string renderText(std::size_t top = 10) const;
};

/** Runs the grading pipeline for one configuration. */
class FaultGrader
{
  public:
    explicit FaultGrader(GradeConfig config) : cfg(config) {}

    const GradeConfig &config() const { return cfg; }

    GradeReport run();

  private:
    GradeConfig cfg;
};

} // namespace spm::fault

#endif // SPM_FAULT_GRADE_HH
