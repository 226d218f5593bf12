/**
 * @file
 * The executable specification of the matching problem.
 *
 * ReferenceMatcher evaluates the Section 3.1 definition of r_i
 * directly, with no cleverness; every other implementation is tested
 * against it. It also provides the reference definitions for the
 * Section 3.4 extensions (match counting and correlation).
 */

#ifndef SPM_CORE_REFERENCE_HH
#define SPM_CORE_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "core/matcher.hh"

namespace spm::core
{

/** True when pattern character @p p matches text character @p s. */
inline bool
symbolMatches(Symbol p, Symbol s)
{
    return p == wildcardSymbol || p == s;
}

/** Direct O(n k) evaluation of the r_i definition. */
class ReferenceMatcher : public Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override;

    std::string name() const override { return "reference"; }
};

/**
 * Reference for the Section 3.4 counting extension: c_i is the number
 * of positions j where s_{i-k+j} matches p_j (wild cards count as
 * matches). c_i is 0 for i < k.
 */
std::vector<unsigned> referenceMatchCounts(
    const std::vector<Symbol> &text, const std::vector<Symbol> &pattern);

/**
 * Reference for the Section 3.4 correlation extension:
 *
 *     r_i = (s_{i-k} - p_0)^2 + ... + (s_i - p_k)^2
 *
 * over integer streams; r_i is 0 for i < k.
 */
std::vector<std::int64_t> referenceCorrelation(
    const std::vector<std::int64_t> &text,
    const std::vector<std::int64_t> &pattern);

} // namespace spm::core

#endif // SPM_CORE_REFERENCE_HH
