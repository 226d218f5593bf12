/**
 * @file
 * Conformance cases and their deterministic string encoding.
 *
 * A Case is one instance of the Section 3.1 problem (alphabet width,
 * pattern with wild cards, text). Every case the fuzzer ever runs is
 * replayable from a single printable case ID:
 *
 *   g1:<seed>:<bits>:<k>:<n>:<wc>:<flags>   a generated case: master
 *                                           seed plus the generator
 *                                           knobs; materializeSpec()
 *                                           rebuilds the exact streams
 *   l1:<bits>:<pattern>:<text>              a literal case: the
 *                                           streams themselves, hex
 *                                           symbols '.'-separated,
 *                                           '*' for the wild card
 *
 * Failure reports print the literal ID of the shrunk case, so one
 * string pasted into `conformance_fuzz --replay <id>` reproduces the
 * minimized disagreement with no other state.
 */

#ifndef SPM_CONFORMANCE_CASE_HH
#define SPM_CONFORMANCE_CASE_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "util/types.hh"

namespace spm::conformance
{

/** One instance of the matching problem. */
struct Case
{
    BitWidth bits = 2; ///< alphabet width; symbols are < 2^bits
    std::vector<Symbol> pattern;
    std::vector<Symbol> text;

    bool operator==(const Case &) const = default;
};

/** Structured-generation knobs (the "flags" field of a g1 ID). */
enum CaseFlag : unsigned
{
    /** Pattern is periodic, so matches self-overlap. */
    FlagSelfOverlap = 1u << 0,
    /** Plant matches straddling the sharded service's boundaries. */
    FlagShardStraddle = 1u << 1,
    /** Plant one match at the earliest legal position (i = k-1). */
    FlagLeadingMatch = 1u << 2,
    /** Plant one match ending on the last text character. */
    FlagTrailingMatch = 1u << 3,
    /**
     * Plant prefix and suffix fragments of the pattern so the
     * dictionaries the multi-pattern oracles derive from the case
     * (members are pattern prefixes/suffixes and text substrings) get
     * overlapping hits where the full pattern misses.
     */
    FlagDictOverlap = 1u << 4,
};

/**
 * Seed + knobs for one generated case. The case content is a pure
 * function of this record (materializeSpec), so the g1 encoding of
 * the record is a replayable case ID.
 */
struct CaseSpec
{
    std::uint64_t seed = 0;
    BitWidth bits = 2;
    std::size_t patternLen = 3;
    std::size_t textLen = 40;
    /** Wild-card probability in percent (0..100). */
    unsigned wildcardPct = 0;
    unsigned flags = 0;

    bool operator==(const CaseSpec &) const = default;
};

/** Deterministically build the case a spec describes. */
Case materializeSpec(const CaseSpec &spec);

/** Encode a spec as a g1 case ID. */
std::string encodeSpec(const CaseSpec &spec);

/** Encode a case verbatim as an l1 case ID. */
std::string encodeLiteral(const Case &c);

/** Decode a g1 ID; nullopt when malformed or not a g1 ID. */
std::optional<CaseSpec> decodeSpec(const std::string &id);

/**
 * Decode any case ID (g1 or l1) into the case it replays; nullopt
 * when the string is not a well-formed case ID.
 */
std::optional<Case> decodeCase(const std::string &id);

} // namespace spm::conformance

#endif // SPM_CONFORMANCE_CASE_HH
