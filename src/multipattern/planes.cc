#include "multipattern/planes.hh"

#include <algorithm>
#include <array>
#include <cstddef>
#include <stdexcept>
#include <utility>

namespace spm::multipattern
{

namespace
{

constexpr std::size_t bitsPerWord = 64;
/** Packed words per walk block; node scratch is trie nodes x this. */
constexpr std::size_t blockWords = 16;
constexpr std::uint32_t wildClass = 0xFFFFFFFFu;
constexpr std::uint32_t rootNode = 0xFFFFFFFFu;
constexpr std::uint32_t noTerm = 0xFFFFFFFFu;

/** The root's partial AND: no factor yet, every position live. */
constexpr std::array<std::uint64_t, blockWords> allOnes = [] {
    std::array<std::uint64_t, blockWords> a{};
    a.fill(~std::uint64_t(0));
    return a;
}();

std::size_t
wordCount(std::size_t n)
{
    return (n + bitsPerWord - 1) / bitsPerWord;
}

} // namespace

BitSlicedDictMatcher::BitSlicedDictMatcher(bool dedup_planes)
    : dedup(dedup_planes), ops(core::bestSimdIsa())
{
}

void
BitSlicedDictMatcher::compile(const DictPatterns &dict)
{
    if (dict == compiledDict)
        return;
    compiledDict = dict;
    trie.clear();
    groups.clear();
    classSyms.clear();
    termNode.assign(dict.size(), noTerm);
    literalBits = 0;
    // Equality masks carry this many zero words ahead of the text, so
    // a factor shifted by up to kmax - 1 reads the empty history there
    // instead of branching at the text start.
    historyWords = longestPattern(dict) / bitsPerWord + 1;

    // Fuse members in groups of <= fusedGroupPatterns: each group is a
    // trie over reversed members (children keyed by character class;
    // depth encodes the end offset), so shared suffixes share one
    // partial-AND node.  The no-dedup ablation gives every member its
    // own group, chain and equality masks.
    const std::size_t perGroup = dedup ? fusedGroupPatterns : 1;
    // children[v + 1 - firstNode] lists the (classId, node) edges of
    // trie node v; slot 0 stands for the root.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        children;
    for (std::size_t g0 = 0; g0 < dict.size(); g0 += perGroup) {
        Group g{};
        g.firstMember = g0;
        g.endMember = std::min(dict.size(), g0 + perGroup);
        g.firstNode = static_cast<std::uint32_t>(trie.size());
        g.firstClass = dedup ? 0 : static_cast<std::uint32_t>(
                                       classSyms.size());
        children.assign(1, {});

        auto classOf = [&](Symbol c) -> std::uint32_t {
            for (std::size_t i = g.firstClass; i < classSyms.size(); ++i)
                if (classSyms[i] == c)
                    return static_cast<std::uint32_t>(i);
            classSyms.push_back(c);
            literalBits = static_cast<Symbol>(literalBits | c);
            return static_cast<std::uint32_t>(classSyms.size() - 1);
        };

        for (std::size_t pi = g.firstMember; pi < g.endMember; ++pi) {
            const auto &member = dict[pi];
            const std::size_t k = member.size();
            if (k == 0)
                continue;
            std::uint32_t node = rootNode;
            for (std::size_t d = 0; d < k; ++d) {
                const Symbol c = member[k - 1 - d];
                const std::uint32_t cls =
                    c == wildcardSymbol ? wildClass : classOf(c);
                auto &kids =
                    children[node == rootNode ? 0 : node + 1 - g.firstNode];
                std::uint32_t next = rootNode;
                for (const auto &edge : kids)
                    if (edge.first == cls) {
                        next = edge.second;
                        break;
                    }
                if (next == rootNode) {
                    next = static_cast<std::uint32_t>(trie.size());
                    trie.push_back(
                        {node, cls, static_cast<std::uint32_t>(d)});
                    kids.emplace_back(cls, next);
                    children.emplace_back();
                }
                node = next;
            }
            termNode[pi] = node;
        }
        g.endNode = static_cast<std::uint32_t>(trie.size());
        g.endClass = static_cast<std::uint32_t>(classSyms.size());
        groups.push_back(g);
    }
    // Deduplicated groups share one equality mask per distinct symbol
    // across the whole dictionary.
    if (dedup)
        for (Group &g : groups)
            g.endClass = static_cast<std::uint32_t>(classSyms.size());
}

void
BitSlicedDictMatcher::buildEqMasks(const Group &g, std::size_t nw,
                                   unsigned planes, std::size_t stride)
{
    const std::size_t masks = g.endClass - g.firstClass;
    if (eqArena.size() < masks * stride)
        eqArena.resize(masks * stride);
    for (std::size_t c = 0; c < masks; ++c) {
        std::uint64_t *m = eqArena.data() + c * stride;
        std::fill(m, m + historyWords, 0);
        ops.eqMask(planeArena.data(), nw, planes,
                   classSyms[g.firstClass + c], m + historyWords, nw);
    }
    eqBuilt += masks;
    wordOps += static_cast<std::uint64_t>(masks) * planes * nw;
}

DictHits
BitSlicedDictMatcher::matchAll(std::span<const Symbol> text,
                               const DictPatterns &dict)
{
    return matchFrom(text, dict, 0);
}

DictHits
BitSlicedDictMatcher::matchFrom(std::span<const Symbol> text,
                                const DictPatterns &dict, std::size_t from)
{
    const std::size_t n = text.size();
    const std::size_t p = dict.size();
    if (from > n)
        throw std::invalid_argument(
            "matchFrom: report offset past the end of the text");

    planesBuilt = 0;
    eqBuilt = 0;
    trieNodes = 0;
    patternChars = 0;
    sweeps = 0;
    wordOps = 0;
    hits = 0;

    DictHits out;
    out.bits.assign(p, BitVec(n - from));
    for (const auto &member : dict)
        patternChars += member.size();
    if (from == n || p == 0)
        return out;
    compile(dict);

    // One read of the text stages its bytes and their OR, and one
    // transpose covers every pattern.
    const std::size_t nw = wordCount(n);
    const Symbol seen = ops.stage(text, byteText);
    const unsigned planes =
        ops.transpose(byteText.data(), byteText.data() + nw * bitsPerWord,
                      nw, seen, literalBits, planeArena);
    planesBuilt = planes;

    const std::size_t stride = historyWords + nw;
    std::uint32_t builtFirst = 0;
    std::uint32_t builtEnd = 0;
    for (const Group &g : groups) {
        bool live = false;
        for (std::size_t pi = g.firstMember; pi < g.endMember && !live;
             ++pi)
            live = !dict[pi].empty() && dict[pi].size() <= n;
        if (!live)
            continue;
        if (g.firstClass != builtFirst || g.endClass != builtEnd) {
            buildEqMasks(g, nw, planes, stride);
            builtFirst = g.firstClass;
            builtEnd = g.endClass;
        }
        ++sweeps;
        const std::size_t nodes = g.endNode - g.firstNode;
        trieNodes += nodes;
        if (valArena.size() < nodes * blockWords)
            valArena.resize(nodes * blockWords);
        if (nodeVal.size() < nodes)
            nodeVal.resize(nodes);

        for (std::size_t w0 = 0; w0 < nw; w0 += blockWords) {
            const std::size_t cnt = std::min(blockWords, nw - w0);
            // Node-major over the block: nodes were appended parent
            // first, so one pass evaluates every partial AND.  Wild
            // nodes and the root's children (offset 0, a bare mask)
            // alias the words they equal instead of copying them.
            for (std::uint32_t v = g.firstNode; v < g.endNode; ++v) {
                const TrieNode &node = trie[v];
                const std::size_t local = v - g.firstNode;
                const std::uint64_t *up =
                    node.parent == rootNode
                        ? allOnes.data()
                        : nodeVal[node.parent - g.firstNode];
                if (node.classId == wildClass) {
                    nodeVal[local] = up;
                    continue;
                }
                const std::uint64_t *eq =
                    eqArena.data() +
                    static_cast<std::size_t>(node.classId - g.firstClass) *
                        stride +
                    historyWords + w0 - node.offset / bitsPerWord;
                if (node.parent == rootNode) {
                    nodeVal[local] = eq;
                    continue;
                }
                std::uint64_t *dst = valArena.data() + local * blockWords;
                ops.andShifted(dst, up, eq, cnt,
                               static_cast<unsigned>(node.offset %
                                                     bitsPerWord));
                nodeVal[local] = dst;
                wordOps += cnt;
            }

            // Scatter the block's set bits, ctz by ctz, into the rows.
            for (std::size_t pi = g.firstMember; pi < g.endMember; ++pi) {
                const std::size_t k = dict[pi].size();
                if (k == 0 || k > n)
                    continue;
                // Windows ending before k - 1 are incomplete, and
                // positions before from are history, not results.
                const std::size_t start = std::max(from, k - 1);
                const std::size_t startWord = start / bitsPerWord;
                const std::uint64_t *row =
                    nodeVal[termNode[pi] - g.firstNode];
                BitVec &dest = out.bits[pi];
                for (std::size_t j = startWord > w0 ? startWord - w0 : 0;
                     j < cnt; ++j) {
                    const std::size_t w = w0 + j;
                    std::uint64_t word = row[j];
                    if (w == startWord)
                        word &= ~std::uint64_t(0) << (start % bitsPerWord);
                    if (w == nw - 1 && n % bitsPerWord != 0)
                        word &= ~std::uint64_t(0) >>
                                (bitsPerWord - n % bitsPerWord);
                    while (word != 0) {
                        const std::size_t i =
                            w * bitsPerWord +
                            static_cast<unsigned>(__builtin_ctzll(word));
                        dest.set(i - from, true);
                        ++hits;
                        word &= word - 1;
                    }
                }
            }
        }
    }
    return out;
}

DictHits
feedDictChunk(BitSlicedDictMatcher &m, DictStreamState &state,
              std::span<const Symbol> chunk, const DictPatterns &dict)
{
    const std::size_t kmax = longestPattern(dict);
    const std::size_t keep = kmax == 0 ? 0 : kmax - 1;
    if (state.tail.size() > keep)
        throw std::invalid_argument(
            "feedDictChunk: carry tail longer than dictionary allows");

    // Replay the carried tail plus the chunk.  The tail holds
    // min(kmax - 1, seen) characters: either every window ending in
    // the chunk has its full history in the replay window, or the
    // window IS the whole stream so far -- in both cases the
    // window-local bit at skip + c equals the stream-global bit at
    // state.seen + c, including the leading always-false positions.
    std::vector<Symbol> window;
    window.reserve(state.tail.size() + chunk.size());
    window.insert(window.end(), state.tail.begin(), state.tail.end());
    window.insert(window.end(), chunk.begin(), chunk.end());

    DictHits out = m.matchFrom(window, dict, state.tail.size());

    state.seen += chunk.size();
    if (keep == 0) {
        state.tail.clear();
    } else if (window.size() <= keep) {
        state.tail = std::move(window);
    } else {
        state.tail.assign(window.end() - static_cast<std::ptrdiff_t>(keep),
                          window.end());
    }
    return out;
}

} // namespace spm::multipattern
