/**
 * @file
 * Long patterns on a small machine: the multipass driver.
 *
 * "If the pattern to be matched is longer than the capacity of the
 * available pattern matching system, the pattern can be run through
 * the system several times to match it against the entire string. If
 * the system contains a total of n character cells, each run will
 * match the complete pattern against n substrings. To cover all
 * substrings, all we need do is delay the string by n characters on
 * succeeding runs" (Section 3.4).
 *
 * With no recirculation, each cell accumulates exactly one substring
 * per run (the whole pattern streams past it once); a system of n
 * cells therefore resolves n substring positions per run.
 */

#ifndef SPM_CORE_MULTIPASS_HH
#define SPM_CORE_MULTIPASS_HH

#include "core/matcher.hh"

namespace spm::core
{

/**
 * Matcher that covers patterns longer than the array by making
 * multiple runs, delaying the string by the cell count between runs.
 */
class MultipassMatcher : public Matcher
{
  public:
    /** @param num_cells character cells in the available system. */
    explicit MultipassMatcher(std::size_t num_cells)
        : cells(num_cells)
    {
    }

    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override;

    std::string name() const override { return "systolic-multipass"; }

    /** Runs made by the last match() call. */
    std::size_t lastRuns() const { return runsUsed; }

    /** Total beats across all runs of the last match() call. */
    Beat lastBeats() const { return beatsUsed; }

  private:
    std::size_t cells;
    std::size_t runsUsed = 0;
    Beat beatsUsed = 0;
};

} // namespace spm::core

#endif // SPM_CORE_MULTIPASS_HH
