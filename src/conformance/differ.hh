/**
 * @file
 * Differential execution of one case across the oracle registry.
 *
 * Entry 0 of the registry (the reference definition) provides the
 * trusted answer; every other eligible oracle's result stream is
 * diffed bit for bit against it. A disagreement records the first and
 * last mismatching text positions -- the shrinker's starting point --
 * and an oracle that throws (a service-level failure) is reported as
 * a disagreement of kind Error rather than silently skipped.
 *
 * The reference reads the case text as its own exact-size vector; every
 * other oracle reads it as a span in the middle of a larger buffer,
 * flanked by k+1 in-alphabet symbols on each side. A matcher that reads
 * past either end of its span then reads live characters that can
 * change its answer -- a read AddressSanitizer cannot see.
 */

#ifndef SPM_CONFORMANCE_DIFFER_HH
#define SPM_CONFORMANCE_DIFFER_HH

#include <string>
#include <vector>

#include "conformance/case.hh"
#include "conformance/oracles.hh"

namespace spm::conformance
{

/** One oracle's verdict against the reference on one case. */
struct Disagreement
{
    enum class Kind
    {
        Mismatch, ///< result stream differs from the reference
        Error,    ///< the oracle threw instead of answering
    };

    std::string oracle;
    Kind kind = Kind::Mismatch;
    /** First and last differing text positions (Mismatch only). */
    std::size_t firstIndex = 0;
    std::size_t lastIndex = 0;
    /** Mismatching positions in total (Mismatch only). */
    std::size_t mismatches = 0;
    /** The thrown message (Error only). */
    std::string detail;

    std::string summary() const;
};

/** The outcome of one differential case run. */
struct CaseResult
{
    /** Oracles that ran (eligible at this index). */
    std::size_t oraclesRun = 0;
    /** Oracles skipped by eligibility limits or stride. */
    std::size_t oraclesSkipped = 0;
    std::vector<Disagreement> disagreements;

    bool agreed() const { return disagreements.empty(); }
};

/**
 * Run @p c across every oracle eligible at @p index and diff against
 * the reference (registry entry 0, which always runs).
 */
CaseResult runCase(const Case &c, std::vector<Oracle> &oracles,
                   std::uint64_t index = 0);

/**
 * Whether @p oracle (by registry position) still disagrees with the
 * reference on @p c -- the shrinker's predicate. Errors count as
 * disagreement.
 */
bool stillFails(const Case &c, std::vector<Oracle> &oracles,
                std::size_t oracle_pos);

} // namespace spm::conformance

#endif // SPM_CONFORMANCE_DIFFER_HH
