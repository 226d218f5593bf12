/**
 * @file
 * The rejected one-directional static-pattern array.
 *
 * "An algorithm that is similar to ours uses a linear array of cells
 * with data flowing in only one direction. The pattern is permanently
 * stored in the array of cells, and the text string moves past it.
 * Partial results move at half the speed of the text so that they
 * accumulate results from an entire substring match. This algorithm
 * was rejected because of the static storage of the pattern. Loading
 * the cells in preparation for a pattern match would require extra
 * time and circuitry" (Section 3.3.1).
 *
 * Simulated beat for beat: text advances one cell per beat, result
 * tokens one cell every two beats, so a result token meets exactly
 * the right text character at every cell it passes.
 */

#ifndef SPM_BASELINES_STATICARRAY_HH
#define SPM_BASELINES_STATICARRAY_HH

#include "core/matcher.hh"

namespace spm::baselines
{

/** One-directional systolic matcher with a statically loaded pattern. */
class StaticArrayMatcher : public core::Matcher
{
  public:
    BitVec match(std::span<const Symbol> text,
                 std::span<const Symbol> pattern) override;

    std::string name() const override { return "static-one-directional"; }

    /** Beats of the last match() call, including pattern loading. */
    Beat lastBeats() const { return beatsUsed; }

    /** Beats spent loading the pattern. */
    Beat lastLoadBeats() const { return loadBeats; }

  private:
    Beat beatsUsed = 0;
    Beat loadBeats = 0;
};

} // namespace spm::baselines

#endif // SPM_BASELINES_STATICARRAY_HH
