/**
 * @file
 * The common pattern matcher interface.
 *
 * The string pattern matching problem (Section 3.1): given an input
 * text stream s_0 s_1 s_2 ... over alphabet Sigma and a pattern
 * p_0 p_1 ... p_k over Sigma plus the wild card x, produce a stream of
 * bits where
 *
 *     r_i = (s_{i-k} = p_0) AND (s_{i+1-k} = p_1) AND ... AND
 *           (s_i = p_k)
 *
 * and the wild card matches any character. Every implementation in
 * this repository -- the systolic chip at three fidelity levels, the
 * cascade, and all baseline algorithms -- implements this interface so
 * the experiments can compare them uniformly.
 */

#ifndef SPM_CORE_MATCHER_HH
#define SPM_CORE_MATCHER_HH

#include <span>
#include <string>
#include <vector>

#include "util/bitvec.hh"
#include "util/types.hh"

namespace spm::core
{

/** Abstract matcher over the Section 3.1 problem. */
class Matcher
{
  public:
    virtual ~Matcher() = default;

    /**
     * Compute the result bit stream.
     *
     * @param text the text string s_0 ... s_{n-1}, a view (often a
     *        window cut from a longer request): read exactly these
     *        characters and keep no reference past the call
     * @param pattern the pattern p_0 ... p_k; wildcardSymbol entries
     *        match any character
     * @return r of size n; r[i] is the Section 3.1 result bit. Bits
     *         for i < k (incomplete substrings) are always false.
     */
    virtual BitVec match(std::span<const Symbol> text,
                         std::span<const Symbol> pattern) = 0;

    /** Implementation name for reports. */
    virtual std::string name() const = 0;

    /**
     * Whether the implementation supports wild cards in the pattern.
     * The fast sequential comparison-skipping algorithms do not
     * (Section 3.1: "When wild card characters exist in the pattern
     * these methods break down").
     */
    virtual bool supportsWildcards() const { return true; }
};

} // namespace spm::core

#endif // SPM_CORE_MATCHER_HH
