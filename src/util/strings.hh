/**
 * @file
 * Conversions between Symbol streams and printable text.
 *
 * The paper's examples use uppercase letters with 'X' as the wild card
 * (e.g., pattern AXC against text ABCABAACAC, Figure 3-1). These helpers
 * convert between that notation and Symbol vectors so tests and examples
 * can be written in the paper's own vocabulary.
 */

#ifndef SPM_UTIL_STRINGS_HH
#define SPM_UTIL_STRINGS_HH

#include <string>
#include <vector>

#include "util/bitvec.hh"
#include "util/types.hh"

namespace spm
{

/**
 * Parse a pattern or text written with letters 'A'.. and wild card 'x'
 * or 'X'. 'A' maps to symbol 0, 'B' to 1, and so on.
 */
std::vector<Symbol> parseSymbols(const std::string &text);

/**
 * Render a symbol vector using letters, with 'X' for the wild card.
 * Symbols beyond 'Z'-'A' are rendered as "<n>".
 */
std::string renderSymbols(const std::vector<Symbol> &syms);

/** Map arbitrary byte text into symbols 0..255 (8-bit alphabet). */
std::vector<Symbol> bytesToSymbols(const std::string &bytes);

/** Render match positions: indices i where result bit r_i is set. */
std::string renderMatchPositions(const BitVec &results);

/** Minimum bit width needed to encode every symbol in @p syms. */
BitWidth requiredBits(const std::vector<Symbol> &syms);

} // namespace spm

#endif // SPM_UTIL_STRINGS_HH
