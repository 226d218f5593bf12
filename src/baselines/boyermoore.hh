/**
 * @file
 * Boyer-Moore matching.
 *
 * The second fast sequential baseline (Section 3.3.1); skips over
 * parts of the text using the bad-character and good-suffix rules.
 * Sublinear on average, exact patterns only.
 */

#ifndef SPM_BASELINES_BOYERMOORE_HH
#define SPM_BASELINES_BOYERMOORE_HH

#include "core/matcher.hh"

namespace spm::baselines
{

/** Boyer-Moore with both classic shift rules; exact patterns only. */
class BoyerMooreMatcher : public core::Matcher
{
  public:
    BitVec match(std::span<const Symbol> text,
                 std::span<const Symbol> pattern) override;

    std::string name() const override { return "boyer-moore"; }

    bool supportsWildcards() const override { return false; }

    /** Character comparisons performed by the last match() call. */
    std::uint64_t lastComparisons() const { return comparisons; }

  private:
    std::uint64_t comparisons = 0;
};

} // namespace spm::baselines

#endif // SPM_BASELINES_BOYERMOORE_HH
