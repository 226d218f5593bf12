/**
 * @file
 * The fault-injection campaign runner.
 *
 * One campaign fixes a seeded workload (text, pattern, golden result
 * from core/reference) and replays a fault list against it, one fault
 * per trial, under a configurable protection profile:
 *
 *   detection  - bus-character parity (parity.hh), duplicated
 *                comparators (SelfCheckingComparatorCell), TMR lane
 *                disagreement (tmr voting), and the host's software
 *                cross-check against the reference matcher;
 *   recovery   - TMR voting in place, bounded host retry with beat
 *                backoff (retry.hh), and spare-cell bypass through
 *                the wafer snake (bypass.hh).
 *
 * Every trial is classified:
 *
 *   Masked    - no detection signal and the result is correct: the
 *               fault had no observable effect (e.g. a latch bit
 *               stuck at the value it already carried);
 *   Detected  - a detection layer flagged the run; the final answer
 *               is correct without invoking recovery, or recovery was
 *               unavailable/exhausted and the wrong answer is at
 *               least flagged, never trusted;
 *   Corrected - a detection layer flagged the run and a recovery
 *               layer (vote, retry or bypass) produced the correct
 *               answer;
 *   Silent    - the worst case: wrong answer, no signal.
 *
 * Coverage is summarized over *effective* injections (total minus
 * masked), the standard denominator for fault-injection campaigns:
 * a masked fault is indistinguishable from no fault at all.
 */

#ifndef SPM_FAULT_CAMPAIGN_HH
#define SPM_FAULT_CAMPAIGN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "fault/model.hh"
#include "fault/retry.hh"
#include "util/table.hh"
#include "util/types.hh"

namespace spm::fault
{

/** Classification of one fault-injection trial. */
enum class Outcome : unsigned char
{
    Masked,
    Detected,
    Corrected,
    Silent,
};

/** Printable name of an outcome. */
const char *outcomeName(Outcome outcome);

/** Simulator fidelity a campaign trial runs against. */
enum class Fidelity : unsigned char
{
    Behavioral,
    BitSerial,
    GateLevel,
};

/** Which detection and recovery layers are armed for a trial. */
struct Protection
{
    bool parity = true;         ///< bus-character parity check
    bool selfCheck = true;      ///< duplicated comparators
    bool tmr = true;            ///< three lanes, 2-of-3 vote
    bool referenceCheck = true; ///< host software cross-check
    bool retry = true;          ///< bounded host re-run
    bool bypass = true;         ///< wafer snake re-harvest

    /** Everything off: the unprotected baseline. */
    static Protection none()
    {
        return {false, false, false, false, false, false};
    }
};

/** Workload, protection profile and recovery limits of a campaign. */
struct CampaignConfig
{
    std::size_t cells = 8;       ///< array size (the 1979 prototype)
    BitWidth alphabetBits = 2;   ///< bits per character
    std::size_t textLen = 48;
    std::size_t patternLen = 4;
    double wildcardProb = 0.25;
    std::uint64_t seed = 1979;
    Protection protection;
    RetryPolicy retryPolicy;
    /** Throw RetryExhausted instead of classifying Detected. */
    bool strictRetry = false;
    /** Wafer backing the array; sites >= cells. Default: no spares. */
    unsigned waferRows = 2;
    unsigned waferCols = 4;
};

/** What happened on one injected fault. */
struct TrialResult
{
    Fault fault;
    Outcome outcome = Outcome::Masked;
    bool parityFlag = false;
    bool selfCheckFlag = false;
    bool tmrFlag = false;
    bool referenceFlag = false;
    /** Full protocol runs spent, including the first. */
    unsigned attempts = 1;
    /** Backoff beats the retry controller charged. */
    Beat backoffBeats = 0;
    /** Array size after bypass recovery; 0 when bypass never ran. */
    std::size_t degradedCells = 0;

    /** "parity+tmr" style list of the layers that flagged the run. */
    std::string detectors() const;
};

/** Replays fault lists against one seeded workload. */
class FaultCampaign
{
  public:
    explicit FaultCampaign(CampaignConfig config);

    const CampaignConfig &config() const { return cfg; }
    const std::vector<Symbol> &textData() const { return text; }
    const std::vector<Symbol> &patternData() const { return pattern; }
    const std::vector<bool> &goldenResult() const { return golden; }

    /** Beats one protocol run takes; the transient strike window. */
    Beat protocolBeats() const;

    /**
     * Inject @p f into a full protected run and classify it: the
     * outcome, detector flags, retry attempts and backoff beats, and
     * bypass cells all land in the returned TrialResult.
     */
    TrialResult runTrial(const Fault &f);

    /** runTrial over a whole list, in order. */
    std::vector<TrialResult> run(const std::vector<Fault> &faults);

    /**
     * Portability check: run @p f at any fidelity with every layer
     * off except the reference cross-check. Returns Masked when the
     * faulty run still matches the golden result, Detected otherwise.
     * Gate level covers permanent faults only (transients would need
     * a per-beat hook the netlist does not expose); a transient at
     * gate level therefore reports Masked.
     */
    Outcome runReferenceChecked(Fidelity fidelity, const Fault &f);

    /** Aggregate counts over a result list. */
    struct Summary
    {
        std::size_t total = 0;
        std::size_t masked = 0;
        std::size_t detected = 0;
        std::size_t corrected = 0;
        std::size_t silent = 0;

        /** Injections with an observable effect. */
        std::size_t effective() const { return total - masked; }

        /** Detected-or-corrected share of effective injections, %. */
        double detectedOrCorrectedPct() const;

        /** Silent-corruption share of all injections, %. */
        double silentPct() const;
    };

    static Summary summarize(const std::vector<TrialResult> &results);

    /**
     * Coverage table: one row per fault kind plus a total row, with
     * outcome counts and the detected-or-corrected percentage over
     * effective injections.
     */
    static Table coverageTable(const std::vector<TrialResult> &results,
                               const std::string &title);

  private:
    /** Signals observed on one full protocol run. */
    struct Observation
    {
        std::vector<bool> result;
        std::uint64_t parityErrors = 0;
        std::uint64_t selfCheckErrors = 0;
        std::uint64_t tmrDisagreements = 0;
    };

    Observation protectedRun(const Fault *f,
                             const Protection &prot) const;

    CampaignConfig cfg;
    std::vector<Symbol> text;
    std::vector<Symbol> pattern;
    std::vector<bool> golden;
};

} // namespace spm::fault

#endif // SPM_FAULT_CAMPAIGN_HH
