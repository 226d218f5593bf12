/**
 * @file
 * Knuth-Morris-Pratt matching.
 *
 * One of the "fast sequential algorithms" the paper's Section 3.3.1
 * rules out for hardware: it needs dynamically changing communication
 * (the failure-function jumps), and its self-overlap precomputation
 * "breaks down" under wild cards because the matches relation is no
 * longer transitive (Section 3.1). Included as the strongest exact-
 * match software baseline alongside Boyer-Moore.
 */

#ifndef SPM_BASELINES_KMP_HH
#define SPM_BASELINES_KMP_HH

#include "core/matcher.hh"

namespace spm::baselines
{

/** Classic KMP; exact patterns only. */
class KmpMatcher : public core::Matcher
{
  public:
    BitVec match(std::span<const Symbol> text,
                 std::span<const Symbol> pattern) override;

    std::string name() const override { return "kmp"; }

    bool supportsWildcards() const override { return false; }

    /** Character comparisons performed by the last match() call. */
    std::uint64_t lastComparisons() const { return comparisons; }

    /** Compute the KMP failure function (exposed for tests). */
    static std::vector<std::size_t> failureFunction(
        std::span<const Symbol> pattern);

  private:
    std::uint64_t comparisons = 0;
};

} // namespace spm::baselines

#endif // SPM_BASELINES_KMP_HH
