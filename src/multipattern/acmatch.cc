#include "multipattern/acmatch.hh"

#include <algorithm>
#include <queue>
#include <stdexcept>

namespace spm::multipattern
{

namespace
{

/** Build-time trie node; flattened into contiguous storage after the
 *  BFS pass. */
struct BuildNode {
    std::vector<std::pair<Symbol, std::uint32_t>> kids; // sorted
    std::vector<std::uint32_t> outs;
    std::uint32_t fail = 0;
    std::uint32_t dictLink = 0;
};

std::uint32_t
buildChild(std::vector<BuildNode> &trie, std::uint32_t node, Symbol c)
{
    auto &kids = trie[node].kids;
    auto it = std::lower_bound(
        kids.begin(), kids.end(), c,
        [](const auto &edge, Symbol sym) { return edge.first < sym; });
    if (it != kids.end() && it->first == c)
        return it->second;
    const auto fresh = static_cast<std::uint32_t>(trie.size());
    kids.insert(it, {c, fresh});
    trie.emplace_back();
    return fresh;
}

std::uint32_t
buildGoto(const std::vector<BuildNode> &trie, std::uint32_t node, Symbol c)
{
    const auto &kids = trie[node].kids;
    auto it = std::lower_bound(
        kids.begin(), kids.end(), c,
        [](const auto &edge, Symbol sym) { return edge.first < sym; });
    if (it != kids.end() && it->first == c)
        return it->second;
    return 0;
}

} // namespace

AhoCorasickAutomaton::AhoCorasickAutomaton(const DictPatterns &dict)
{
    patternLens.reserve(dict.size());

    std::vector<BuildNode> trie(1);
    for (std::size_t p = 0; p < dict.size(); ++p) {
        patternLens.push_back(dict[p].size());
        if (dict[p].empty())
            continue; // an empty member matches nowhere, like the bit kernels
        std::uint32_t node = 0;
        for (Symbol c : dict[p]) {
            if (c == wildcardSymbol)
                throw std::invalid_argument(
                    "AhoCorasickAutomaton: wild cards are not supported; "
                    "use the bit-sliced dictionary matcher");
            node = buildChild(trie, node, c);
        }
        trie[node].outs.push_back(static_cast<std::uint32_t>(p));
    }

    // BFS failure links.  fail(child of root) = root; otherwise
    // follow the parent's failure chain to the deepest proper suffix
    // that is also a trie path.  dictLink short-circuits the chain to
    // the next terminal node so emission is O(hits), not O(depth).
    std::queue<std::uint32_t> bfs;
    for (const auto &[sym, child] : trie[0].kids) {
        (void)sym;
        trie[child].fail = 0;
        bfs.push(child);
    }
    while (!bfs.empty()) {
        const std::uint32_t node = bfs.front();
        bfs.pop();
        const std::uint32_t viaFail = trie[node].fail;
        trie[node].dictLink = trie[viaFail].outs.empty()
                                  ? trie[viaFail].dictLink
                                  : viaFail;
        for (const auto &[sym, child] : trie[node].kids) {
            std::uint32_t f = trie[node].fail;
            while (f != 0 && buildGoto(trie, f, sym) == 0)
                f = trie[f].fail;
            const std::uint32_t target = buildGoto(trie, f, sym);
            trie[child].fail = (target == child) ? 0 : target;
            bfs.push(child);
        }
    }

    // Flatten into contiguous storage: one node vector, one shared
    // sorted edge vector (goto = binary search of the node's span),
    // one shared output-id vector.
    nodes.resize(trie.size());
    for (std::size_t v = 0; v < trie.size(); ++v) {
        Node &node = nodes[v];
        node.fail = trie[v].fail;
        node.dictLink = trie[v].dictLink;
        node.edgeBegin = static_cast<std::uint32_t>(edges.size());
        for (const auto &edge : trie[v].kids)
            edges.push_back(edge);
        node.edgeEnd = static_cast<std::uint32_t>(edges.size());
        node.outBegin = static_cast<std::uint32_t>(outIds.size());
        for (std::uint32_t id : trie[v].outs)
            outIds.push_back(id);
        node.outEnd = static_cast<std::uint32_t>(outIds.size());
    }
}

std::uint32_t
AhoCorasickAutomaton::gotoEdge(std::uint32_t node, Symbol c) const
{
    const Node &v = nodes[node];
    const auto *begin = edges.data() + v.edgeBegin;
    const auto *end = edges.data() + v.edgeEnd;
    const auto *it = std::lower_bound(
        begin, end, c,
        [](const auto &edge, Symbol sym) { return edge.first < sym; });
    if (it != end && it->first == c)
        return it->second;
    return 0;
}

std::uint32_t
AhoCorasickAutomaton::step(std::uint32_t node, Symbol c) const
{
    std::uint32_t next = gotoEdge(node, c);
    while (next == 0 && node != 0) {
        node = nodes[node].fail;
        next = gotoEdge(node, c);
    }
    return next;
}

void
AhoCorasickAutomaton::emit(std::uint32_t node, std::size_t pos,
                           DictHits &out) const
{
    std::uint32_t v =
        nodes[node].outBegin != nodes[node].outEnd ? node
                                                   : nodes[node].dictLink;
    while (v != 0) {
        for (std::uint32_t o = nodes[v].outBegin; o < nodes[v].outEnd; ++o)
            out.bits[outIds[o]].set(pos, true);
        v = nodes[v].dictLink;
    }
}

DictHits
AhoCorasickAutomaton::matchAll(std::span<const Symbol> text) const
{
    StreamState state;
    return feed(state, text);
}

DictHits
AhoCorasickAutomaton::feed(StreamState &state,
                           std::span<const Symbol> chunk) const
{
    DictHits out;
    out.bits.assign(patternLens.size(), BitVec(chunk.size()));
    std::uint32_t node = state.node;
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        node = step(node, chunk[i]);
        emit(node, i, out);
    }
    state.node = node;
    state.seen += chunk.size();
    return out;
}

DictHits
AhoCorasickMatcher::matchAll(std::span<const Symbol> text,
                             const DictPatterns &dict)
{
    if (automaton == nullptr || dict != compiledDict) {
        automaton = std::make_unique<AhoCorasickAutomaton>(dict);
        compiledDict = dict;
    }
    return automaton->matchAll(text);
}

} // namespace spm::multipattern
