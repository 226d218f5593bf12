#include "conformance/oracles.hh"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/batch.hh"
#include "core/behavioral.hh"
#include "core/bitserial.hh"
#include "core/cascade.hh"
#include "core/gatechip.hh"
#include "core/multipass.hh"
#include "core/reference.hh"
#include "core/simdpar.hh"
#include "multipattern/acmatch.hh"
#include "multipattern/dict.hh"
#include "multipattern/planes.hh"
#include "service/sharded.hh"
#include "util/rng.hh"
#include "util/strings.hh"

namespace spm::conformance
{

namespace
{

/**
 * The first position where @p part differs from bits
 * [off, off + part.size()) of @p whole, or part.size() if none.
 */
std::size_t
firstDiff(const BitVec &part, const BitVec &whole, std::size_t off)
{
    BitVec slice;
    slice.append(whole.words(), off, part.size());
    return (slice ^ part).findFirst();
}

/**
 * The sharded service as a Matcher. One service per alphabet width is
 * built lazily and reused, so worker threads are spawned once per
 * width rather than once per case. Service-level failures (which the
 * Matcher interface cannot express) become exceptions the differ
 * reports as oracle errors.
 */
class ShardedOracleMatcher : public core::Matcher
{
  public:
    explicit ShardedOracleMatcher(unsigned thread_count)
        : threads(thread_count)
    {
    }

    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        if (pattern.empty() || text.empty() ||
            pattern.size() > text.size())
            return BitVec(text.size());

        BitWidth bits = std::max(requiredBits(text),
                                 requiredBits(pattern));
        bits = std::clamp<BitWidth>(bits, 1, 16);
        service::ShardedMatchService &svc = serviceFor(bits);
        service::MatchRequest req;
        req.text = text;
        req.pattern = pattern;
        const service::MatchResponse resp = svc.serve(req);
        if (!resp.ok())
            throw std::runtime_error(name() + ": " + resp.error.detail);
        return resp.result;
    }

    std::string name() const override
    {
        return "service-sharded-" + std::to_string(threads) + "t";
    }

  private:
    service::ShardedMatchService &serviceFor(BitWidth bits)
    {
        for (auto &entry : services)
            if (entry.first == bits)
                return *entry.second;
        service::ShardedConfig cfg;
        cfg.base.alphabetBits = bits;
        cfg.base.maxTextLen = 1 << 20;
        cfg.base.maxPatternLen = 512;
        cfg.base.chunkChars = 48;
        // The differ already reference-checks the stitched output;
        // skip the per-chunk cross-check and journal for speed.
        cfg.base.crossCheck = false;
        cfg.base.journalEnabled = false;
        cfg.threads = threads;
        cfg.minShardChars = 24; // modest texts still split all ways
        auto svc = std::make_unique<service::ShardedMatchService>(
            cfg, [](const service::ServiceConfig &) {
                std::vector<std::unique_ptr<service::ServiceBackend>>
                    ladder;
                ladder.push_back(
                    std::make_unique<service::MatcherBackend>(
                        std::make_unique<core::SimdParallelMatcher>(
                            core::SimdIsa::Scalar)));
                return ladder;
            });
        services.emplace_back(bits, std::move(svc));
        return *services.back().second;
    }

    unsigned threads;
    std::vector<std::pair<
        BitWidth, std::unique_ptr<service::ShardedMatchService>>>
        services;
};

/**
 * The batch matcher behind the Matcher interface. The case text rides
 * as lane 0 of a width-W pack whose other lanes are suffixes of the
 * same text, so every case exercises the packed-segment boundaries at
 * W different alignments. Lane 0 is what the differ checks against
 * the reference; the suffix lanes are verified here against a width-1
 * pass of the same kernel, so a cross-lane packing or extraction bug
 * fails the oracle even when lane 0 happens to agree.
 */
class BatchOracleMatcher : public core::Matcher
{
  public:
    explicit BatchOracleMatcher(std::size_t width) : lanes(width) {}

    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        std::vector<std::vector<Symbol>> streams(lanes);
        streams[0] = text;
        for (std::size_t i = 1; i < lanes; ++i) {
            const std::size_t start =
                text.empty() ? 0 : i * text.size() / lanes;
            streams[i].assign(
                text.begin() + static_cast<std::ptrdiff_t>(start),
                text.end());
        }

        std::vector<BitVec> got = engine.matchMany(streams, pattern);

        for (std::size_t i = 1; i < lanes; ++i) {
            const auto alone = engine.matchMany(
                std::vector<std::vector<Symbol>>{streams[i]}, pattern);
            if (got[i] != alone[0])
                throw std::runtime_error(
                    name() + ": lane " + std::to_string(i) +
                    " disagrees with its own unbatched answer");
        }
        return std::move(got[0]);
    }

    std::string name() const override
    {
        return "batch-w" + std::to_string(lanes);
    }

  private:
    std::size_t lanes;
    core::BatchMatcher engine;
};

/**
 * The multi-pattern tier behind the single-pattern Matcher interface.
 * A dictionary of @p dict_size members is derived deterministically
 * from the case -- member 0 is the case pattern verbatim (what the
 * differ checks against the reference); the rest are prefixes and
 * suffixes of the pattern (shared trie structure, overlapping hits
 * where the full pattern misses), substrings of the text (guaranteed
 * hits), and one-symbol mutations.  Internally the oracle runs the
 * whole dictionary through the bit-sliced fused sweep, its no-dedup
 * ablation, the Aho-Corasick automaton (literal members), and the
 * naive per-pattern reference, and throws on any internal
 * disagreement so the differ reports it against this oracle's name.
 * With @p chunk > 0 the bit-sliced and AC engines additionally stream
 * in chunk-sized pieces, which must be bit-identical to one-shot.
 */
class DictOracleMatcher : public core::Matcher
{
  public:
    DictOracleMatcher(std::size_t dict_size, std::size_t chunk)
        : members(dict_size), chunkChars(chunk)
    {
    }

    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        const multipattern::DictPatterns dict = deriveDict(text, pattern);

        const multipattern::DictHits got = planes.matchAll(text, dict);

        // Plane dedup must change cost only, never hits.
        if (noDedup.matchAll(text, dict) != got)
            throw std::runtime_error(
                name() + ": dedup and no-dedup hit sets disagree");

        checkAhoCorasick(text, dict, got);

        // The trusted-but-slow leg; capped so big-text sweeps stay
        // tractable (the reference scan is O(p * n * k)).
        if (text.size() <= 1024 &&
            naive.matchAll(text, dict) != got)
            throw std::runtime_error(
                name() + ": bit-sliced planes disagree with the naive "
                         "per-pattern reference");

        if (chunkChars > 0)
            checkChunked(text, dict, got);

        return got.bits.empty() ? BitVec(text.size()) : got.bits[0];
    }

    std::string name() const override
    {
        std::string s = "dict-p" + std::to_string(members);
        if (chunkChars > 0)
            s += "-chunk" + std::to_string(chunkChars);
        return s;
    }

  private:
    multipattern::DictPatterns
    deriveDict(const std::vector<Symbol> &text,
               const std::vector<Symbol> &pattern) const
    {
        // Deterministic per-case stream: fold both strings FNV-style
        // so the same case always derives the same dictionary.
        std::uint64_t h = 0xCBF29CE484222325ULL;
        for (Symbol c : pattern)
            h = (h ^ c) * 0x100000001B3ULL;
        h = (h ^ 0xD1C7) * 0x100000001B3ULL;
        for (Symbol c : text)
            h = (h ^ c) * 0x100000001B3ULL;
        Rng rng(h);

        BitWidth bits = std::max(requiredBits(text), requiredBits(pattern));
        bits = std::clamp<BitWidth>(bits, 1, 16);
        const std::uint64_t sigma = std::uint64_t(1) << bits;
        const auto literal = [&](Symbol c) {
            return c == wildcardSymbol
                       ? static_cast<Symbol>(rng.nextBelow(sigma))
                       : c;
        };

        multipattern::DictPatterns dict;
        dict.reserve(members);
        dict.push_back(pattern); // member 0: the case, verbatim
        const std::size_t k = pattern.size();
        while (dict.size() < members) {
            std::vector<Symbol> member;
            switch (rng.nextBelow(4)) {
            case 0: // prefix of the pattern: shared goto structure
                if (k >= 2) {
                    const std::size_t len = 1 + rng.nextBelow(k - 1);
                    member.assign(pattern.begin(),
                                  pattern.begin() +
                                      static_cast<std::ptrdiff_t>(len));
                }
                break;
            case 1: // suffix of the pattern: shared suffix-trie chain
                if (k >= 2) {
                    const std::size_t len = 1 + rng.nextBelow(k - 1);
                    member.assign(pattern.end() -
                                      static_cast<std::ptrdiff_t>(len),
                                  pattern.end());
                }
                break;
            case 2: // substring of the text: a guaranteed hit
                if (!text.empty()) {
                    const std::size_t len = 1 + rng.nextBelow(std::min<
                        std::size_t>(text.size(), std::max<std::size_t>(
                                                      k, 4)));
                    const std::size_t at =
                        rng.nextBelow(text.size() - len + 1);
                    member.assign(
                        text.begin() + static_cast<std::ptrdiff_t>(at),
                        text.begin() +
                            static_cast<std::ptrdiff_t>(at + len));
                }
                break;
            default: // one-symbol mutation of the pattern
                if (k > 0) {
                    member = pattern;
                    member[rng.nextBelow(k)] =
                        static_cast<Symbol>(rng.nextBelow(sigma));
                }
                break;
            }
            if (member.empty())
                member.push_back(static_cast<Symbol>(rng.nextBelow(sigma)));
            // Derived members are literal so the AC automaton can
            // cover all of them; only member 0 may carry wild cards.
            for (Symbol &c : member)
                c = literal(c);
            dict.push_back(std::move(member));
        }
        return dict;
    }

    void checkAhoCorasick(const std::vector<Symbol> &text,
                          const multipattern::DictPatterns &dict,
                          const multipattern::DictHits &got)
    {
        // AC is literal-only: cover every wild-card-free member (all
        // derived members; member 0 exactly when the case has no wild
        // cards).
        std::vector<std::size_t> literalIdx;
        multipattern::DictPatterns literalDict;
        for (std::size_t i = 0; i < dict.size(); ++i) {
            bool isLiteral = true;
            for (Symbol c : dict[i])
                if (c == wildcardSymbol) {
                    isLiteral = false;
                    break;
                }
            if (isLiteral) {
                literalIdx.push_back(i);
                literalDict.push_back(dict[i]);
            }
        }
        if (literalDict.empty())
            return;
        const multipattern::AhoCorasickAutomaton automaton(literalDict);
        const multipattern::DictHits acHits = automaton.matchAll(text);
        for (std::size_t j = 0; j < literalIdx.size(); ++j)
            if (acHits.bits[j] != got.bits[literalIdx[j]])
                throw std::runtime_error(
                    name() + ": Aho-Corasick disagrees with the "
                             "bit-sliced planes on member " +
                    std::to_string(literalIdx[j]));

        if (chunkChars > 0) {
            multipattern::AhoCorasickAutomaton::StreamState state;
            for (std::size_t off = 0; off < text.size();
                 off += chunkChars) {
                const std::size_t take =
                    std::min(chunkChars, text.size() - off);
                const std::vector<Symbol> chunk(
                    text.begin() + static_cast<std::ptrdiff_t>(off),
                    text.begin() +
                        static_cast<std::ptrdiff_t>(off + take));
                const multipattern::DictHits part =
                    automaton.feed(state, chunk);
                for (std::size_t j = 0; j < literalIdx.size(); ++j)
                    if (const std::size_t c = firstDiff(
                            part.bits[j], got.bits[literalIdx[j]], off);
                        c < take)
                        throw std::runtime_error(
                            name() +
                            ": streamed Aho-Corasick diverges "
                            "from one-shot at position " +
                            std::to_string(off + c));
            }
        }
    }

    void checkChunked(const std::vector<Symbol> &text,
                      const multipattern::DictPatterns &dict,
                      const multipattern::DictHits &got)
    {
        multipattern::DictStreamState state;
        std::size_t off = 0;
        while (off < text.size()) {
            const std::size_t take =
                std::min(chunkChars, text.size() - off);
            const std::vector<Symbol> chunk(
                text.begin() + static_cast<std::ptrdiff_t>(off),
                text.begin() + static_cast<std::ptrdiff_t>(off + take));
            const multipattern::DictHits part =
                multipattern::feedDictChunk(planes, state, chunk, dict);
            for (std::size_t p = 0; p < dict.size(); ++p)
                if (const std::size_t c =
                        firstDiff(part.bits[p], got.bits[p], off);
                    c < take)
                    throw std::runtime_error(
                        name() +
                        ": chunked feeding diverges from one-shot "
                        "at position " + std::to_string(off + c));
            off += take;
        }
    }

    std::size_t members;
    std::size_t chunkChars;
    multipattern::BitSlicedDictMatcher planes{true};
    multipattern::BitSlicedDictMatcher noDedup{false};
    multipattern::NaiveDictMatcher naive;
};

/** A two-chip cascade resized to each case's pattern. */
class CascadeOracleMatcher : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        const std::size_t per_chip =
            std::max<std::size_t>(1, (pattern.size() + 1) / 2);
        core::CascadeMatcher cascade(2, per_chip);
        return cascade.match(text, pattern);
    }

    std::string name() const override { return "systolic-cascade-2chip"; }
};

/**
 * The gate chip's lane path (GateLevelMatcher::matchLanes) behind the
 * Matcher interface: a chip sized to the case runs the text cut into
 * 1, 16 and 64 lanes, each cut in one call. The cuts must stitch to
 * the same stream; the one-lane answer is what the differ checks.
 */
class GateLanesMatcher : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        if (pattern.empty())
            return BitVec(text.size());
        core::GateLevelMatcher chip(
            pattern.size(),
            std::max(requiredBits(text), requiredBits(pattern)));
        const BitVec one =
            matchLaneCut(chip, cutIntoLanes(text, pattern.size(), 1),
                         pattern);
        for (const std::size_t lanes : {16u, 64u})
            if (matchLaneCut(chip,
                             cutIntoLanes(text, pattern.size(), lanes),
                             pattern) != one)
                throw std::runtime_error(
                    name() + ": the " + std::to_string(lanes) +
                    "-lane cut disagrees with the one-lane run");
        return one;
    }

    std::string name() const override { return "gate-lanes"; }
};

Oracle
entry(std::unique_ptr<core::Matcher> m, std::size_t max_text,
      std::size_t max_pattern, BitWidth max_bits, std::uint64_t stride)
{
    Oracle o;
    o.matcher = std::move(m);
    o.maxText = max_text;
    o.maxPattern = max_pattern;
    o.maxBits = max_bits;
    o.stride = stride;
    return o;
}

} // namespace

std::unique_ptr<core::Matcher>
makeShardedOracle(unsigned threads)
{
    return std::make_unique<ShardedOracleMatcher>(threads);
}

std::unique_ptr<core::Matcher>
makeCascadeOracle()
{
    return std::make_unique<CascadeOracleMatcher>();
}

LaneCut
cutIntoLanes(const std::vector<Symbol> &text, std::size_t k,
             std::size_t lanes)
{
    const std::size_t n = text.size();
    const std::size_t chunk = std::max<std::size_t>(1, n / lanes);
    LaneCut cut;
    for (std::size_t off = 0; off < n; off += chunk) {
        const bool last = cut.windows.size() + 1 == lanes;
        const std::size_t end = last ? n : std::min(n, off + chunk);
        const std::size_t overlap = std::min(k - 1, off);
        cut.windows.emplace_back(
            text.begin() + static_cast<std::ptrdiff_t>(off - overlap),
            text.begin() + static_cast<std::ptrdiff_t>(end));
        cut.overlap.push_back(overlap);
        if (last)
            break;
    }
    return cut;
}

BitVec
matchLaneCut(core::GateLevelMatcher &chip, const LaneCut &cut,
             const std::vector<Symbol> &pattern)
{
    const std::vector<core::GateLevelMatcher::LaneResult> lanes =
        chip.matchLanes(cut.windows, pattern);
    BitVec out;
    for (std::size_t j = 0; j < lanes.size(); ++j)
        out.append(lanes[j].bits.words(), cut.overlap[j],
                   lanes[j].bits.size() - cut.overlap[j]);
    return out;
}

std::vector<Oracle>
makeAllOracles(bool with_gate)
{
    std::vector<Oracle> oracles;
    // Entry 0: the executable specification everything is diffed
    // against. Unlimited; every case has a trusted answer.
    oracles.push_back(entry(std::make_unique<core::ReferenceMatcher>(),
                            1 << 20, 1 << 12, 16, 1));
    // The bit-sliced kernel: the portable scalar tier and the best
    // tier at full limits, plus SSE2 forced explicitly when it sits
    // between them, so an AVX2 box diffs every tier's code path on
    // each sweep.
    oracles.push_back(entry(
        std::make_unique<core::SimdParallelMatcher>(core::SimdIsa::Scalar),
        1 << 20, 1 << 12, 16, 1));
    oracles.push_back(entry(std::make_unique<core::SimdParallelMatcher>(),
                            1 << 20, 1 << 12, 16, 1));
    if (core::simdIsaSupported(core::SimdIsa::Sse2) &&
        core::SimdIsa::Sse2 < core::bestSimdIsa())
        oracles.push_back(entry(
            std::make_unique<core::SimdParallelMatcher>(core::SimdIsa::Sse2),
            1 << 18, 1 << 12, 16, 1));
    // The batch layer over that kernel at two pack widths (suffix
    // lanes verified inside the oracle).
    oracles.push_back(entry(std::make_unique<BatchOracleMatcher>(3),
                            1 << 14, 256, 16, 1));
    oracles.push_back(entry(std::make_unique<BatchOracleMatcher>(64),
                            1 << 12, 256, 16, 2));
    // The multi-pattern tier: dictionary sizes spanning one member,
    // the prototype's array width, and a full fused 64-pattern sweep,
    // plus a chunked-feeding variant (AC / naive legs verified inside
    // the oracle).
    oracles.push_back(entry(std::make_unique<DictOracleMatcher>(1, 0),
                            1 << 14, 128, 16, 1));
    oracles.push_back(entry(std::make_unique<DictOracleMatcher>(8, 0),
                            1 << 13, 128, 16, 1));
    oracles.push_back(entry(std::make_unique<DictOracleMatcher>(64, 0),
                            1 << 12, 128, 16, 2));
    oracles.push_back(entry(std::make_unique<DictOracleMatcher>(8, 9),
                            1 << 12, 128, 16, 2));
    // Engine-simulated fidelities: ~2n beats of cell evaluations per
    // case; cap the text so a 100k-case sweep stays minutes, not hours.
    oracles.push_back(entry(std::make_unique<core::BehavioralMatcher>(),
                            192, 64, 16, 1));
    oracles.push_back(entry(std::make_unique<core::BitSerialMatcher>(),
                            160, 48, 8, 1));
    oracles.push_back(entry(std::make_unique<core::MultipassMatcher>(4),
                            160, 96, 16, 2));
    oracles.push_back(entry(makeCascadeOracle(), 160, 64, 16, 2));
    // The gate-level chip runs thousands of device evaluations per
    // beat; small cases with a stride keep it present in every sweep
    // without dominating the budget.
    if (with_gate) {
        oracles.push_back(
            entry(std::make_unique<core::GateLevelMatcher>(), 48, 6, 3,
                  8));
        // Up to 256 characters so the 64-lane cut fills every lane.
        oracles.push_back(entry(std::make_unique<GateLanesMatcher>(),
                                gateLanesMaxText, gateLanesMaxPattern,
                                gateLanesMaxBits, 4));
    }
    for (const unsigned threads : {1u, 2u, 4u})
        oracles.push_back(
            entry(makeShardedOracle(threads), 1 << 16, 256, 16, 1));
    return oracles;
}

std::vector<std::string>
allOracleNames(bool with_gate)
{
    std::vector<std::string> names;
    for (const Oracle &o : makeAllOracles(with_gate))
        names.push_back(o.name());
    return names;
}

} // namespace spm::conformance
