/**
 * @file
 * Structured case generation for the conformance fuzzer.
 *
 * Uniform random cases almost never land on the shapes where
 * boundary-length bugs hide: pattern lengths straddling the 64-bit
 * word (63/64/65), single-character patterns, wild-card-dense
 * patterns, texts sized exactly to a word or shard boundary,
 * self-overlapping (periodic) patterns, and matches whose windows
 * straddle a shard cut. CaseGen therefore draws its knobs from
 * stratified hard regions rather than uniformly: index i maps
 * deterministically to a CaseSpec (and so, via the case ID, to one
 * replayable case).
 */

#ifndef SPM_CONFORMANCE_CASEGEN_HH
#define SPM_CONFORMANCE_CASEGEN_HH

#include <cstdint>

#include "conformance/case.hh"

namespace spm::conformance
{

/** Deterministic structured generator: master seed + index -> spec. */
class CaseGen
{
  public:
    explicit CaseGen(std::uint64_t master_seed) : master(master_seed) {}

    /** The spec for sweep index @p index (pure function). */
    CaseSpec specAt(std::uint64_t index) const;

    /** materializeSpec(specAt(index)). */
    Case caseAt(std::uint64_t index) const
    {
        return materializeSpec(specAt(index));
    }

  private:
    std::uint64_t master;
};

} // namespace spm::conformance

#endif // SPM_CONFORMANCE_CASEGEN_HH
