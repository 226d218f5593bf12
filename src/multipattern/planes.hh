#pragma once
/**
 * Bit-sliced multi-pattern realization on the SIMD kernel's word
 * operations (core/simdpar.hh): the text is transposed into bit planes
 * once, equality masks are built once per distinct character class,
 * and the per-pattern AND chains are fused through a reversed (suffix)
 * trie so dictionaries sharing suffix structure cost less than p
 * independent scans.
 *
 * A pattern's window bit r_p[i] factors by end offset d = k_p-1-j:
 * r_p = AND_d shiftUp(eq(p[k_p-1-d]), d), so two patterns with a
 * common suffix share a prefix of their factor chains -- exactly a
 * trie over reversed patterns.  Each trie node holds one partial AND.
 * The walk is node-major over fixed-size blocks of packed words: each
 * node's block is one andShifted call on the tier-dispatched ops, and
 * scratch stays O(trie nodes x block) whatever the text length.
 * Wild-card positions contribute an all-ones factor and collapse to a
 * shared wild edge.  Up to 64 patterns are fused per sweep; larger
 * dictionaries run ceil(p/64) sweeps over the same planes.
 *
 * The trie is compiled once per dictionary and cached, keyed on the
 * dictionary's contents, so a stream of chunks against one dictionary
 * pays for it on the first chunk only.  Hit rows are written straight
 * from the packed node words, set bits only, starting at any text
 * offset: the chunked carry protocol (feedDictChunk) replays its tail
 * without ever copying the tail's rows.
 */

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/simdpar.hh"
#include "multipattern/dict.hh"
#include "util/types.hh"

namespace spm::multipattern
{

class BitSlicedDictMatcher final : public DictMatcher
{
  public:
    /** Patterns fused per sweep (one result lane per packed word bit
     *  is not required -- the cap bounds trie width per walk). */
    static constexpr std::size_t fusedGroupPatterns = 64;

    /** @p dedup_planes disables suffix-trie node merging and
     *  equality-mask sharing when false; the no-dedup variant exists
     *  so conformance can prove dedup changes cost, never hits. */
    explicit BitSlicedDictMatcher(bool dedup_planes = true);

    DictHits matchAll(std::span<const Symbol> text,
                      const DictPatterns &dict) override;

    /**
     * Match @p dict over all of @p text but report only positions
     * [from, n): bits[p][c] = pattern p ends at text position
     * from + c.  Positions before @p from still feed the windows that
     * end at or after it.
     */
    DictHits matchFrom(std::span<const Symbol> text,
                       const DictPatterns &dict, std::size_t from);

    std::string name() const override
    {
        return dedup ? "dict-planes" : "dict-planes-nodedup";
    }

    /** Counters from the last match, for telemetry and the E19
     *  dedup ablation. */
    unsigned lastPlanes() const { return planesBuilt; }
    std::size_t lastEqMasks() const { return eqBuilt; }
    std::size_t lastTrieNodes() const { return trieNodes; }
    std::size_t lastPatternChars() const { return patternChars; }
    std::size_t lastSweeps() const { return sweeps; }
    std::uint64_t lastWordOps() const { return wordOps; }
    /** Set bits in the last result, counted as they were scattered. */
    std::uint64_t lastHits() const { return hits; }

  private:
    struct TrieNode {
        std::uint32_t parent;  // trie index; rootNode = the empty chain
        std::uint32_t classId; // index into classSyms; wildClass = wild
        std::uint32_t offset;  // end offset d of this factor
    };

    /** One fused sweep: its members, trie nodes and equality masks. */
    struct Group {
        std::size_t firstMember, endMember;
        std::uint32_t firstNode, endNode;
        std::uint32_t firstClass, endClass;
    };

    /** Rebuild the cached trie unless it already holds @p dict. */
    void compile(const DictPatterns &dict);

    /** Equality masks of @p g's classes, into eqArena. */
    void buildEqMasks(const Group &g, std::size_t nw, unsigned planes,
                      std::size_t stride);

    const bool dedup;
    const core::SimdOps ops;

    unsigned planesBuilt = 0;
    std::size_t eqBuilt = 0;
    std::size_t trieNodes = 0;
    std::size_t patternChars = 0;
    std::size_t sweeps = 0;
    std::uint64_t wordOps = 0;
    std::uint64_t hits = 0;

    // Compiled per dictionary; compiledDict is the cache key.
    DictPatterns compiledDict;
    std::vector<TrieNode> trie;
    std::vector<Group> groups;
    std::vector<std::uint32_t> termNode;
    std::vector<Symbol> classSyms;
    Symbol literalBits = 0;
    std::size_t historyWords = 0;

    // Scratch arenas reused across calls.
    std::vector<std::uint8_t> byteText;
    std::vector<std::uint64_t> planeArena;
    std::vector<std::uint64_t> eqArena;
    std::vector<std::uint64_t> valArena;
    std::vector<const std::uint64_t *> nodeVal;
};

/**
 * Feed one chunk through @p m with windowed replay.  Returns hit
 * bits for exactly the chunk's positions (bits[p][c] = pattern p
 * ends at stream position state.seen + c) and advances the carry;
 * m.lastHits() counts them.
 */
DictHits feedDictChunk(BitSlicedDictMatcher &m, DictStreamState &state,
                       std::span<const Symbol> chunk,
                       const DictPatterns &dict);

} // namespace spm::multipattern
