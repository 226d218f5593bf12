#pragma once
/**
 * Aho-Corasick software baseline: the classic goto/fail/output
 * automaton, compiled into contiguous node storage (node vector +
 * one shared sorted edge vector, binary-searched goto) so traversal
 * touches two flat arrays -- the same layout discipline the
 * hardware-co-design papers use for on-chip state tables.
 *
 * The automaton handles literal dictionaries only (wild cards have no
 * failure-function analogue); the bit-sliced realization in
 * planes.hh covers wild cards.  Matching streams natively: one state
 * id plus a position counter is the complete carry, so chunked
 * feeding is exact by construction.
 */

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "multipattern/dict.hh"
#include "util/types.hh"

namespace spm::multipattern
{

class AhoCorasickAutomaton
{
  public:
    /** Compile @p dict.  Empty members are legal (their hit rows stay
     *  all-false); wild cards throw std::invalid_argument. */
    explicit AhoCorasickAutomaton(const DictPatterns &dict);

    /** One-shot match over @p text. */
    DictHits matchAll(std::span<const Symbol> text) const;

    /** Streaming carry: the current automaton state is the complete
     *  history summary. */
    struct StreamState {
        std::uint32_t node = 0;
        std::uint64_t seen = 0;
    };

    /** Feed one chunk; appends nothing, returns hit bits for exactly
     *  the chunk's positions and advances @p state. */
    DictHits feed(StreamState &state,
                  std::span<const Symbol> chunk) const;

    std::size_t patternCount() const { return patternLens.size(); }
    std::size_t stateCount() const { return nodes.size(); }
    std::size_t edgeCount() const { return edges.size(); }
    std::size_t patternLen(std::size_t p) const { return patternLens[p]; }

  private:
    struct Node {
        std::uint32_t fail = 0;
        // Next terminal node on the failure chain (0 = none): hit
        // emission walks dictLink instead of every fail link.
        std::uint32_t dictLink = 0;
        std::uint32_t edgeBegin = 0;
        std::uint32_t edgeEnd = 0;
        std::uint32_t outBegin = 0;
        std::uint32_t outEnd = 0;
    };

    std::uint32_t gotoEdge(std::uint32_t node, Symbol c) const;
    std::uint32_t step(std::uint32_t node, Symbol c) const;
    void emit(std::uint32_t node, std::size_t pos, DictHits &out) const;

    std::vector<Node> nodes;
    std::vector<std::pair<Symbol, std::uint32_t>> edges; // sorted per span
    std::vector<std::uint32_t> outIds; // pattern ids, spans per node
    std::vector<std::size_t> patternLens;
};

/** DictMatcher adapter: recompiles when the dictionary changes, so
 *  repeated scans against one rule set pay compilation once. */
class AhoCorasickMatcher final : public DictMatcher
{
  public:
    DictHits matchAll(std::span<const Symbol> text,
                      const DictPatterns &dict) override;
    std::string name() const override { return "dict-ac"; }
    bool supportsWildcards() const override { return false; }

  private:
    DictPatterns compiledDict;
    std::unique_ptr<AhoCorasickAutomaton> automaton;
};

} // namespace spm::multipattern
