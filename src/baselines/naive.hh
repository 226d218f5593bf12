/**
 * @file
 * The obvious software baseline.
 *
 * Position-by-position comparison with early exit: what a host
 * computer without a pattern matching peripheral would run. Handles
 * wild cards, O(n k) worst case, O(n) on random text.
 */

#ifndef SPM_BASELINES_NAIVE_HH
#define SPM_BASELINES_NAIVE_HH

#include "core/matcher.hh"

namespace spm::baselines
{

/** Early-exit naive matcher. */
class NaiveMatcher : public core::Matcher
{
  public:
    BitVec match(std::span<const Symbol> text,
                 std::span<const Symbol> pattern) override;

    std::string name() const override { return "naive"; }

    /** Character comparisons performed by the last match() call. */
    std::uint64_t lastComparisons() const { return comparisons; }

  private:
    std::uint64_t comparisons = 0;
};

} // namespace spm::baselines

#endif // SPM_BASELINES_NAIVE_HH
