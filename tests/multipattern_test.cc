/**
 * @file
 * Property tests for src/multipattern: the Aho-Corasick baseline and
 * the bit-sliced fused-plane realization against the naive per-pattern
 * reference on randomized dictionaries, plane-dedup equivalence, and
 * bit-identical chunked-vs-one-shot feeding under randomized splits.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "multipattern/acmatch.hh"
#include "multipattern/dict.hh"
#include "multipattern/planes.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace spm::multipattern
{
namespace
{

std::vector<Symbol>
randomText(Rng &rng, std::size_t n, BitWidth bits)
{
    std::vector<Symbol> text(n);
    for (auto &c : text)
        c = static_cast<Symbol>(rng.nextBelow(std::uint64_t(1) << bits));
    return text;
}

/**
 * Random dictionary biased toward shared structure: members are drawn
 * as fresh strings, prefixes/suffixes of earlier members, or
 * substrings of the text (guaranteed hits), so the suffix trie and
 * the failure links both get exercised with overlap.
 */
DictPatterns
randomDict(Rng &rng, const std::vector<Symbol> &text, std::size_t p,
           std::size_t max_len, BitWidth bits, unsigned wildcard_pct)
{
    const std::uint64_t sigma = std::uint64_t(1) << bits;
    DictPatterns dict;
    dict.reserve(p);
    for (std::size_t i = 0; i < p; ++i) {
        std::vector<Symbol> member;
        const std::size_t kind = i == 0 ? 0 : rng.nextBelow(4);
        if (kind == 1 || kind == 2) {
            // Prefix or suffix of an earlier member.
            const auto &base = dict[rng.nextBelow(dict.size())];
            if (!base.empty()) {
                const std::size_t len = 1 + rng.nextBelow(base.size());
                member.assign(kind == 1
                                  ? base.begin()
                                  : base.end() -
                                        static_cast<std::ptrdiff_t>(len),
                              kind == 1 ? base.begin() +
                                              static_cast<std::ptrdiff_t>(len)
                                        : base.end());
            }
        } else if (kind == 3 && !text.empty()) {
            // Substring of the text: a guaranteed hit.
            const std::size_t len =
                1 + rng.nextBelow(std::min<std::size_t>(max_len, text.size()));
            const std::size_t at = rng.nextBelow(text.size() - len + 1);
            member.assign(text.begin() + static_cast<std::ptrdiff_t>(at),
                          text.begin() + static_cast<std::ptrdiff_t>(at + len));
        }
        if (member.empty()) {
            const std::size_t len = 1 + rng.nextBelow(max_len);
            member.resize(len);
            for (auto &c : member)
                c = static_cast<Symbol>(rng.nextBelow(sigma));
        }
        for (auto &c : member)
            if (rng.nextBelow(100) < wildcard_pct)
                c = wildcardSymbol;
        dict.push_back(std::move(member));
    }
    return dict;
}

TEST(AhoCorasick, MatchesNaiveOnRandomLiteralDictionaries)
{
    Rng rng(0x19A0u);
    NaiveDictMatcher naive;
    AhoCorasickMatcher ac;
    for (int round = 0; round < 60; ++round) {
        const BitWidth bits = round % 3 == 0 ? 2 : 8;
        const std::size_t n = 1 + rng.nextBelow(300);
        const std::size_t p = 1 + rng.nextBelow(20);
        const auto text = randomText(rng, n, bits);
        const auto dict = randomDict(rng, text, p, 12, bits, 0);
        ASSERT_EQ(ac.matchAll(text, dict), naive.matchAll(text, dict))
            << "round " << round;
    }
}

TEST(AhoCorasick, RejectsWildcards)
{
    DictPatterns dict = {{Symbol(1), wildcardSymbol}};
    EXPECT_THROW(AhoCorasickAutomaton{dict}, std::invalid_argument);
}

TEST(AhoCorasick, HandlesDuplicateAndNestedMembers)
{
    // "b" is a suffix of "ab"; duplicates must both report; the empty
    // member matches nowhere.
    const DictPatterns dict = {{1, 2}, {2}, {1, 2}, {}, {2, 1, 2}};
    const std::vector<Symbol> text = {1, 2, 1, 2, 2};
    NaiveDictMatcher naive;
    AhoCorasickMatcher ac;
    const DictHits got = ac.matchAll(text, dict);
    EXPECT_EQ(got, naive.matchAll(text, dict));
    EXPECT_EQ(got.bits[0], got.bits[2]);
    EXPECT_EQ(got.bits[3], BitVec(text.size(), false));
}

TEST(AhoCorasick, ContiguousStorageIsCompact)
{
    const DictPatterns dict = {{1, 2, 3}, {1, 2, 4}, {2, 3}};
    AhoCorasickAutomaton automaton(dict);
    // Shared prefixes share trie states: root + {1,12,123,124,2,23}.
    EXPECT_EQ(automaton.stateCount(), 7u);
    EXPECT_EQ(automaton.edgeCount(), 6u);
    EXPECT_EQ(automaton.patternCount(), 3u);
}

TEST(BitSlicedDict, MatchesNaiveWithWildcards)
{
    Rng rng(0x19A1u);
    NaiveDictMatcher naive;
    BitSlicedDictMatcher planes;
    for (int round = 0; round < 60; ++round) {
        const BitWidth bits = round % 4 == 0 ? 2 : (round % 4 == 1 ? 5 : 8);
        const std::size_t n = 1 + rng.nextBelow(300);
        const std::size_t p = 1 + rng.nextBelow(24);
        const unsigned wc = round % 2 == 0 ? 0 : 25;
        const auto text = randomText(rng, n, bits);
        const auto dict = randomDict(rng, text, p, 12, bits, wc);
        ASSERT_EQ(planes.matchAll(text, dict), naive.matchAll(text, dict))
            << "round " << round;
    }
}

TEST(BitSlicedDict, WordBoundaryStraddles)
{
    // Plant a member so matches end exactly at packed-word boundaries
    // (positions 63, 64, 127, 128): the shifted-plane carry path.
    std::vector<Symbol> text(200, Symbol(0));
    const std::vector<Symbol> member = {1, 2, 3, 4, 5};
    for (std::size_t end : {63u, 64u, 127u, 128u, 199u})
        for (std::size_t j = 0; j < member.size(); ++j)
            text[end - member.size() + 1 + j] = member[j];
    const DictPatterns dict = {member, {2, 3}, {5}};
    NaiveDictMatcher naive;
    BitSlicedDictMatcher planes;
    EXPECT_EQ(planes.matchAll(text, dict), naive.matchAll(text, dict));
}

TEST(BitSlicedDict, DegenerateShapes)
{
    NaiveDictMatcher naive;
    BitSlicedDictMatcher planes;
    const std::vector<Symbol> text = {1, 2, 3};
    // Empty dict, empty member, member longer than the text, an
    // all-wildcard member, and a one-symbol member.
    const DictPatterns dict = {{},
                               {1, 2, 3, 1},
                               {wildcardSymbol, wildcardSymbol},
                               {2}};
    EXPECT_EQ(planes.matchAll(text, dict), naive.matchAll(text, dict));
    EXPECT_TRUE(planes.matchAll(text, {}).bits.empty());
    const DictHits onEmpty = planes.matchAll({}, dict);
    for (const auto &row : onEmpty.bits)
        EXPECT_TRUE(row.empty());
}

TEST(BitSlicedDict, DedupEquivalentToNoDedup)
{
    Rng rng(0x19A2u);
    BitSlicedDictMatcher deduped(true);
    BitSlicedDictMatcher independent(false);
    for (int round = 0; round < 40; ++round) {
        const BitWidth bits = round % 2 == 0 ? 2 : 8;
        const std::size_t n = 1 + rng.nextBelow(300);
        const std::size_t p = 1 + rng.nextBelow(80);
        const auto text = randomText(rng, n, bits);
        const auto dict = randomDict(rng, text, p, 10, bits, 20);
        ASSERT_EQ(deduped.matchAll(text, dict),
                  independent.matchAll(text, dict))
            << "round " << round;
    }
}

TEST(BitSlicedDict, DedupSharesSuffixNodesAndPlanes)
{
    // 8 members sharing a 4-symbol suffix: the suffix trie must fold
    // the shared tail into one chain per group, and the character
    // classes must be built once, not per member.
    DictPatterns dict;
    for (Symbol lead = 0; lead < 8; ++lead)
        dict.push_back({lead, Symbol(9), Symbol(10), Symbol(11), Symbol(12)});
    Rng rng(0x19A6u);
    std::vector<Symbol> text(300);
    for (auto &c : text)
        c = static_cast<Symbol>(rng.nextBelow(13));
    BitSlicedDictMatcher deduped(true);
    BitSlicedDictMatcher independent(false);
    (void)deduped.matchAll(text, dict);
    (void)independent.matchAll(text, dict);
    // Shared suffix: 4 shared nodes + 8 leaves = 12 < 8 * 5 = 40.
    EXPECT_EQ(deduped.lastTrieNodes(), 12u);
    EXPECT_EQ(independent.lastTrieNodes(), 40u);
    EXPECT_LT(deduped.lastEqMasks(), independent.lastEqMasks());
    EXPECT_EQ(deduped.lastSweeps(), 1u);
    EXPECT_EQ(deduped.lastPatternChars(), 40u);
}

TEST(BitSlicedDict, FusesAtMostSixtyFourPerSweep)
{
    Rng rng(0x19A3u);
    const auto text = randomText(rng, 150, 4);
    DictPatterns dict = randomDict(rng, text, 130, 6, 4, 10);
    BitSlicedDictMatcher planes;
    NaiveDictMatcher naive;
    EXPECT_EQ(planes.matchAll(text, dict), naive.matchAll(text, dict));
    EXPECT_EQ(planes.lastSweeps(), 3u);
}

TEST(BitSlicedDict, ReusedEngineMatchesFreshAcrossDictionaries)
{
    // One engine fed alternating dictionaries must never answer from
    // the trie it compiled for another one: every call is diffed
    // against a fresh engine and the naive reference.
    Rng rng(0x19A7u);
    const auto text = randomText(rng, 200, 4);
    const DictPatterns small = randomDict(rng, text, 10, 9, 4, 15);
    DictPatterns oneSymbolOff = small;
    Symbol &flip = oneSymbolOff[3][0];
    flip = flip == wildcardSymbol ? Symbol(1)
                                  : static_cast<Symbol>((flip + 1) % 16);
    DictPatterns tooLong = randomDict(rng, text, 5, 6, 4, 0);
    tooLong.push_back(randomText(rng, text.size() + 30, 4));
    const DictPatterns twoGroups = randomDict(rng, text, 90, 7, 4, 10);

    const std::vector<const DictPatterns *> order = {
        &small, &tooLong, &twoGroups, &small, &oneSymbolOff,
        &twoGroups, &tooLong, &oneSymbolOff, &small};
    BitSlicedDictMatcher reused;
    NaiveDictMatcher naive;
    for (std::size_t call = 0; call < order.size(); ++call) {
        const DictPatterns &dict = *order[call];
        BitSlicedDictMatcher fresh;
        const DictHits got = reused.matchAll(text, dict);
        ASSERT_EQ(got, fresh.matchAll(text, dict)) << "call " << call;
        ASSERT_EQ(got, naive.matchAll(text, dict)) << "call " << call;
        EXPECT_EQ(reused.lastHits(), got.totalHits()) << "call " << call;
        EXPECT_EQ(reused.lastSweeps(), fresh.lastSweeps());
    }
}

TEST(Chunked, BitSlicedMatchesOneShotUnderRandomSplits)
{
    Rng rng(0x19A4u);
    BitSlicedDictMatcher planes;
    NaiveDictMatcher naive;
    auto feedInChunks = [&](const std::vector<Symbol> &text,
                            const DictPatterns &dict,
                            std::size_t max_chunk) {
        DictStreamState state;
        DictHits stitched;
        stitched.bits.assign(dict.size(), {});
        std::uint64_t counted = 0;
        std::size_t at = 0;
        while (at < text.size()) {
            const std::size_t len = std::min<std::size_t>(
                text.size() - at, 1 + rng.nextBelow(max_chunk));
            const std::vector<Symbol> chunk(
                text.begin() + static_cast<std::ptrdiff_t>(at),
                text.begin() + static_cast<std::ptrdiff_t>(at + len));
            const DictHits part = feedDictChunk(planes, state, chunk, dict);
            counted += planes.lastHits();
            for (std::size_t p = 0; p < dict.size(); ++p)
                stitched.bits[p].append(part.bits[p].words(), 0,
                                        part.bits[p].size());
            at += len;
        }
        EXPECT_EQ(state.seen, static_cast<std::uint64_t>(text.size()));
        EXPECT_EQ(counted, stitched.totalHits());
        return stitched;
    };

    // 16-bit rounds take the wide (non-byte) transpose; chunks of up
    // to a few hundred characters span several packed words.
    for (int round = 0; round < 60; ++round) {
        const BitWidth bits = round % 3 == 0 ? 2 : (round % 3 == 1 ? 8 : 16);
        const std::size_t maxChunk = round % 2 == 0 ? 40 : 300;
        const std::size_t n = 1 + rng.nextBelow(round % 2 == 0 ? 260 : 700);
        const auto text = randomText(rng, n, bits);
        const auto dict =
            randomDict(rng, text, 1 + rng.nextBelow(12), 9, bits, 15);
        const DictHits oneShot = planes.matchAll(text, dict);
        ASSERT_EQ(oneShot, naive.matchAll(text, dict)) << "round " << round;
        ASSERT_EQ(feedInChunks(text, dict, maxChunk), oneShot)
            << "round " << round;
    }

    // Members longer than 64 carry a tail of more than one packed
    // word, so the report offset into the replay window crosses a
    // word boundary.
    for (int round = 0; round < 8; ++round) {
        const BitWidth bits = round % 2 == 0 ? 2 : 16;
        const auto text = randomText(rng, 900, bits);
        DictPatterns dict = randomDict(rng, text, 6, 9, bits, 10);
        for (std::size_t len : {65u, 97u, 130u}) {
            const std::size_t at = rng.nextBelow(text.size() - len + 1);
            dict.emplace_back(text.begin() + static_cast<std::ptrdiff_t>(at),
                              text.begin() +
                                  static_cast<std::ptrdiff_t>(at + len));
        }
        dict.back()[7] = wildcardSymbol;
        const DictHits oneShot = naive.matchAll(text, dict);
        ASSERT_GT(oneShot.totalHits(), 0u);
        ASSERT_EQ(planes.matchAll(text, dict), oneShot) << "round " << round;
        ASSERT_EQ(feedInChunks(text, dict, round < 4 ? 40 : 300), oneShot)
            << "long round " << round;
    }
}

TEST(Chunked, AhoCorasickStreamStateMatchesOneShot)
{
    Rng rng(0x19A5u);
    for (int round = 0; round < 40; ++round) {
        const BitWidth bits = round % 2 == 0 ? 2 : 8;
        const std::size_t n = 1 + rng.nextBelow(260);
        const auto text = randomText(rng, n, bits);
        const auto dict =
            randomDict(rng, text, 1 + rng.nextBelow(12), 9, bits, 0);
        AhoCorasickAutomaton automaton(dict);
        const DictHits oneShot = automaton.matchAll(text);

        AhoCorasickAutomaton::StreamState state;
        DictHits stitched;
        stitched.bits.assign(dict.size(), {});
        std::size_t at = 0;
        while (at < n) {
            const std::size_t len =
                std::min<std::size_t>(n - at, 1 + rng.nextBelow(40));
            const std::vector<Symbol> chunk(
                text.begin() + static_cast<std::ptrdiff_t>(at),
                text.begin() + static_cast<std::ptrdiff_t>(at + len));
            const DictHits part = automaton.feed(state, chunk);
            for (std::size_t p = 0; p < dict.size(); ++p)
                stitched.bits[p].append(part.bits[p].words(), 0,
                                        part.bits[p].size());
            at += len;
        }
        ASSERT_EQ(stitched, oneShot) << "round " << round;
        EXPECT_EQ(state.seen, static_cast<std::uint64_t>(n));
    }
}

TEST(Chunked, CarryRejectsOversizedTail)
{
    BitSlicedDictMatcher planes;
    DictStreamState state;
    state.tail = {1, 2, 3, 4};
    EXPECT_THROW(feedDictChunk(planes, state, {1}, {{1, 2}}),
                 std::invalid_argument);
}

TEST(DictHits, TotalHitsCounts)
{
    DictHits hits;
    hits.bits = {BitVec::fromString("101"), BitVec::fromString("000"),
                 BitVec::fromString("1")};
    EXPECT_EQ(hits.totalHits(), 3u);
    EXPECT_EQ(longestPattern({{1, 2}, {}, {1, 2, 3}}), 3u);
    EXPECT_EQ(longestPattern({}), 0u);
}

} // namespace
} // namespace spm::multipattern
