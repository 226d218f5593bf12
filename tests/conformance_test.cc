/**
 * @file
 * Tests for the conformance harness itself: case-ID round-trips,
 * generator determinism and coverage of the hard regions, the differ
 * catching a broken matcher, the shrinker minimizing while the
 * failure predicate holds, golden traces agreeing across fidelities,
 * and the mutation self-check catching every seeded bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "conformance/casegen.hh"
#include "conformance/differ.hh"
#include "conformance/goldentrace.hh"
#include "conformance/harness.hh"
#include "conformance/mutants.hh"
#include "conformance/oracles.hh"
#include "conformance/shrink.hh"
#include "core/reference.hh"
#include "core/simdpar.hh"
#include "telemetry/event.hh"
#include "tests/helpers.hh"

namespace spm::conformance
{
namespace
{

TEST(CaseId, SpecRoundTrips)
{
    CaseSpec spec;
    spec.seed = 0xDEADBEEFCAFEull;
    spec.bits = 8;
    spec.patternLen = 64;
    spec.textLen = 129;
    spec.wildcardPct = 35;
    spec.flags = FlagSelfOverlap | FlagShardStraddle;
    const std::string id = encodeSpec(spec);
    const auto back = decodeSpec(id);
    ASSERT_TRUE(back.has_value()) << id;
    EXPECT_EQ(*back, spec);
    // The full decode also materializes the identical case.
    const auto c = decodeCase(id);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(*c, materializeSpec(spec));
}

TEST(CaseId, LiteralRoundTrips)
{
    Case c;
    c.bits = 3;
    c.pattern = {1, wildcardSymbol, 7, 0};
    c.text = {0, 1, 2, 3, 4, 5, 6, 7, 1, 0};
    const auto back = decodeCase(encodeLiteral(c));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, c);

    Case empty;
    empty.bits = 1;
    const auto back2 = decodeCase(encodeLiteral(empty));
    ASSERT_TRUE(back2.has_value());
    EXPECT_EQ(*back2, empty);
}

TEST(CaseId, MalformedIdsAreRejected)
{
    for (const std::string bad :
         {"", "g1:zz", "g1:1:2:3", "l1:2:0..1:0", "l1:0:0:0",
          "l1:2:ffff:0", "x9:1:2:3:4:5:6", "g1:1:17:3:4:5:6"}) {
        EXPECT_FALSE(decodeCase(bad).has_value()) << bad;
    }
}

TEST(CaseGenTest, DeterministicAndIndependentOfHistory)
{
    const CaseGen gen(0x1234);
    const CaseGen gen2(0x1234);
    // Same index -> same case, regardless of query order.
    const Case late = gen.caseAt(777);
    for (std::uint64_t i = 0; i < 50; ++i)
        EXPECT_EQ(gen.caseAt(i), gen2.caseAt(i)) << i;
    EXPECT_EQ(gen.caseAt(777), late);
    // Different master seeds diverge.
    const CaseGen other(0x1235);
    bool any_diff = false;
    for (std::uint64_t i = 0; i < 20 && !any_diff; ++i)
        any_diff = !(gen.caseAt(i) == other.caseAt(i));
    EXPECT_TRUE(any_diff);
}

TEST(CaseGenTest, CoversTheHardRegions)
{
    const CaseGen gen(0xC0FFEE);
    std::set<std::size_t> pattern_lens;
    std::set<BitWidth> widths;
    bool saw_wild_dense = false, saw_straddle = false,
         saw_self_overlap = false, saw_tight = false;
    for (std::uint64_t i = 0; i < 3000; ++i) {
        const CaseSpec spec = gen.specAt(i);
        pattern_lens.insert(spec.patternLen);
        widths.insert(spec.bits);
        saw_wild_dense |= spec.wildcardPct >= 60;
        saw_straddle |= (spec.flags & FlagShardStraddle) != 0;
        saw_self_overlap |= (spec.flags & FlagSelfOverlap) != 0;
        saw_tight |= spec.textLen <= spec.patternLen + 2;
    }
    // Word-boundary pattern lengths and the degenerate k=1.
    for (const std::size_t k :
         {std::size_t(1), std::size_t(63), std::size_t(64),
          std::size_t(65)})
        EXPECT_TRUE(pattern_lens.count(k)) << "missing k=" << k;
    // Alphabet widths 1 (binary), 2 (the chip's) and 8 (bytes).
    for (const BitWidth b : {1u, 2u, 8u})
        EXPECT_TRUE(widths.count(b)) << "missing bits=" << b;
    EXPECT_TRUE(saw_wild_dense);
    EXPECT_TRUE(saw_straddle);
    EXPECT_TRUE(saw_self_overlap);
    EXPECT_TRUE(saw_tight);
}

/** A matcher broken only at the word boundary position 64. */
class BrokenAt64 : public core::Matcher
{
  public:
    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        core::ReferenceMatcher ref;
        auto r = ref.match(text, pattern);
        if (r.size() > 64)
            r.set(64, !r.get(64));
        return r;
    }
    std::string name() const override { return "broken-at-64"; }
};

TEST(Differ, CatchesABrokenMatcherAndReportsTheRegion)
{
    std::vector<Oracle> oracles;
    oracles.push_back(
        Oracle{std::make_unique<core::ReferenceMatcher>()});
    oracles.push_back(Oracle{std::make_unique<BrokenAt64>()});

    Case c;
    c.bits = 1;
    c.pattern = {0};
    c.text.assign(100, 0);
    const CaseResult r = runCase(c, oracles, 0);
    ASSERT_EQ(r.disagreements.size(), 1u);
    EXPECT_EQ(r.disagreements[0].oracle, "broken-at-64");
    EXPECT_EQ(r.disagreements[0].firstIndex, 64u);
    EXPECT_EQ(r.disagreements[0].lastIndex, 64u);
    EXPECT_EQ(r.disagreements[0].mismatches, 1u);
}

/** The reference answer with the bits at @p flips inverted. */
class FlipsBits : public core::Matcher
{
  public:
    explicit FlipsBits(std::vector<std::size_t> positions)
        : flips(std::move(positions))
    {
    }

    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override
    {
        BitVec r = core::ReferenceMatcher().match(text, pattern);
        for (const std::size_t p : flips)
            r.set(p, !r.get(p));
        return r;
    }
    std::string name() const override { return "flips-bits"; }

  private:
    std::vector<std::size_t> flips;
};

TEST(Differ, PinsTheMismatchIndicesAtWordEdges)
{
    Case c;
    c.bits = 1;
    c.pattern = {0, 1};
    c.text.assign(200, 0);
    for (std::size_t i = 0; i < c.text.size(); i += 3)
        c.text[i] = 1;
    // Single flips at the first bit, both sides of the first word
    // boundary and the last bit; then a pair spanning the stream.
    const std::vector<std::vector<std::size_t>> flipSets = {
        {0}, {63}, {64}, {199}, {0, 199}, {63, 64}};
    for (const auto &flips : flipSets) {
        std::vector<Oracle> oracles;
        oracles.push_back(
            Oracle{std::make_unique<core::ReferenceMatcher>()});
        oracles.push_back(Oracle{std::make_unique<FlipsBits>(flips)});
        const CaseResult r = runCase(c, oracles, 0);
        ASSERT_EQ(r.disagreements.size(), 1u);
        const Disagreement &d = r.disagreements[0];
        EXPECT_EQ(d.firstIndex, flips.front()) << flips.front();
        EXPECT_EQ(d.lastIndex, flips.back()) << flips.back();
        EXPECT_EQ(d.mismatches, flips.size());
    }
}

TEST(Differ, ReportsAThrowingOracleAsError)
{
    class Thrower : public core::Matcher
    {
        BitVec match(const std::vector<Symbol> &,
                     const std::vector<Symbol> &) override
        {
            throw std::runtime_error("backend exploded");
        }
        std::string name() const override { return "thrower"; }
    };
    std::vector<Oracle> oracles;
    oracles.push_back(
        Oracle{std::make_unique<core::ReferenceMatcher>()});
    oracles.push_back(Oracle{std::make_unique<Thrower>()});
    Case c;
    c.bits = 1;
    c.pattern = {0};
    c.text = {0, 1};
    const CaseResult r = runCase(c, oracles, 0);
    ASSERT_EQ(r.disagreements.size(), 1u);
    EXPECT_EQ(r.disagreements[0].kind, Disagreement::Kind::Error);
    EXPECT_NE(r.disagreements[0].summary().find("backend exploded"),
              std::string::npos);
}

TEST(Shrinker, MinimizesWhilePreservingTheFailure)
{
    std::vector<Oracle> oracles;
    oracles.push_back(
        Oracle{std::make_unique<core::ReferenceMatcher>()});
    oracles.push_back(Oracle{std::make_unique<BrokenAt64>()});

    // A big noisy case; the bug needs only text length > 64.
    Case big;
    big.bits = 2;
    big.pattern = {1, 2, wildcardSymbol};
    big.text.assign(190, 1);
    ASSERT_TRUE(stillFails(big, oracles, 1));

    const ShrinkResult s = shrinkCase(big, [&](const Case &cand) {
        return stillFails(cand, oracles, 1);
    });
    EXPECT_TRUE(stillFails(s.minimized, oracles, 1));
    // Minimal reproduction: 65 text characters; the bug does not
    // depend on the pattern at all, so it shrinks away entirely.
    EXPECT_EQ(s.minimized.text.size(), 65u);
    EXPECT_TRUE(s.minimized.pattern.empty());
    EXPECT_GT(s.steps, 0u);
    // The minimized case replays from its literal ID.
    const auto back = decodeCase(encodeLiteral(s.minimized));
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(stillFails(*back, oracles, 1));
}

TEST(GoldenTraces, BehavioralAndCascadeAreBeatIdentical)
{
    const test::Workload w = test::makeWorkload(5);
    Case c;
    c.bits = w.bits;
    c.pattern = w.pattern;
    c.text = w.text;
    if (c.pattern.size() > 10)
        c.pattern.resize(10);
    const std::size_t k = c.pattern.size();
    const std::size_t cells = k + (k % 2);
    const GoldenTrace a = traceBehavioral(c, cells);
    const GoldenTrace b = traceCascade(c, 2, cells / 2);
    EXPECT_FALSE(a.ports.empty());
    const TraceDiff d = diffExact(a, b);
    EXPECT_TRUE(d.identical) << d.detail;
}

TEST(GoldenTraces, DiffExactPinpointsACorruptedBeat)
{
    Case c;
    c.bits = 2;
    c.pattern = {0, 1};
    c.text = {0, 1, 0, 1, 1};
    GoldenTrace a = traceBehavioral(c, 2);
    GoldenTrace b = traceBehavioral(c, 2);
    ASSERT_GT(b.ports.size(), 4u);
    b.ports[4].resValue = !b.ports[4].resValue;
    b.ports[4].resValid = true;
    const TraceDiff d = diffExact(a, b);
    EXPECT_FALSE(d.identical);
    EXPECT_NE(d.detail.find("beat"), std::string::npos);
}

TEST(GoldenTraces, BitSerialResultStreamMatchesWithConstantOffset)
{
    for (const std::uint64_t index : {2ull, 7ull, 11ull}) {
        const test::Workload w = test::makeWorkload(index);
        Case c;
        c.bits = w.bits;
        c.pattern = w.pattern;
        c.text = w.text;
        if (c.pattern.size() > 8)
            c.pattern.resize(8);
        if (c.text.size() > 60)
            c.text.resize(60);
        const std::size_t k = c.pattern.size();
        GoldenTrace beh = traceBehavioral(c, k);
        GoldenTrace ser = traceBitSerial(c);
        // Incomplete windows carry unspecified raw values; blank the
        // first k-1 valid samples as the harness does.
        std::size_t seen = 0;
        for (auto *t : {&beh, &ser}) {
            seen = 0;
            for (auto &p : t->ports) {
                if (!p.resValid)
                    continue;
                if (seen + 1 >= k)
                    break;
                p.resValue = false;
                ++seen;
            }
        }
        const TraceDiff d = diffResultStream(beh, ser);
        EXPECT_TRUE(d.identical)
            << "index=" << index << ": " << d.detail;
    }
}

TEST(Harness, FuzzSweepAgreesAndReportsThroughput)
{
    HarnessConfig cfg;
    cfg.cases = 300;
    cfg.seed = 0xFEED;
    const RunReport r = runFuzz(cfg);
    EXPECT_TRUE(r.ok()) << (r.failures.empty()
                                ? ""
                                : r.failures[0].report());
    EXPECT_EQ(r.casesRun, 300u);
    EXPECT_GT(r.comparisons, r.casesRun); // several oracles per case
    EXPECT_GT(r.casesPerSec(), 0.0);
}

TEST(Harness, ReplaysACaseIdEndToEnd)
{
    // The paper's Figure 3-1 example as a literal ID.
    const RunReport r =
        replayCase("l1:2:0.*.2:0.1.2.0.0.2.2.0.2.1", HarnessConfig{});
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.casesRun, 1u);
    EXPECT_GT(r.extensionChecks, 0u);
    EXPECT_GT(r.goldenTraceRuns, 0u);

    const RunReport bad = replayCase("not-an-id", HarnessConfig{});
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.failures.front().detail, "malformed case ID");
}

TEST(Harness, CaseReferencesAreNamedNotReplayable)
{
    // A flight dump's "ref:" (a case past caseLiteralCap) carries its
    // lengths and digest, not its symbols.
    const std::vector<Symbol> pattern = {1, 2, 3};
    const std::vector<Symbol> text(4096, 1);
    const std::string ref = telem::CaseRef(9, 2, pattern, text).render();
    ASSERT_EQ(ref.rfind("ref:", 0), 0u);
    const RunReport r = replayCase(ref, HarnessConfig{});
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.failures.front().detail, "case reference, not replayable");
    EXPECT_EQ(r.casesRun, 0u);
}

TEST(Harness, FailureReportCarriesReplayableIds)
{
    // Drive the harness machinery through a mutant to check the
    // report plumbing: both IDs must decode and still fail.
    std::vector<Oracle> oracles;
    oracles.push_back(
        Oracle{std::make_unique<core::ReferenceMatcher>()});
    for (const Mutant &m : allMutants()) {
        if (m.name != "mut-wild-plane")
            continue;
        oracles.push_back(Oracle{m.make()});
    }
    ASSERT_EQ(oracles.size(), 2u);
    Case c;
    c.bits = 2;
    c.pattern = {wildcardSymbol, 1};
    c.text = {0, 1, 2, 1};
    ASSERT_TRUE(stillFails(c, oracles, 1));
    const ShrinkResult s = shrinkCase(c, [&](const Case &cand) {
        return stillFails(cand, oracles, 1);
    });
    const auto decoded = decodeCase(encodeLiteral(s.minimized));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_TRUE(stillFails(*decoded, oracles, 1));
}

TEST(Mutation, SelfCheckCatchesEverySeededBug)
{
    const MutationReport r = runMutationSelfCheck(0xC0FFEE, 400);
    ASSERT_EQ(r.outcomes.size(), allMutants().size());
    for (const MutantOutcome &o : r.outcomes) {
        EXPECT_TRUE(o.caught)
            << o.name << " survived " << o.casesTried
            << " cases: " << o.seededBug;
        if (o.caught) {
            // The catching case replays and still catches the bug.
            ASSERT_FALSE(o.shrunkId.empty());
            EXPECT_TRUE(decodeCase(o.shrunkId).has_value())
                << o.shrunkId;
        }
    }
    EXPECT_TRUE(r.allCaught());
    EXPECT_EQ(r.survivors(), 0u);
}

TEST(Oracles, RegistryNamesEveryImplementation)
{
    const std::vector<std::string> names = allOracleNames(true);
    // 8 base implementations (sharded x3 = 10 configurations), plus
    // the bit-sliced kernel at its scalar tier, its best tier and SSE2
    // when that sits between them, plus two batch pack widths, plus
    // four dictionary shapes.
    const std::size_t sse2_between =
        core::simdIsaSupported(core::SimdIsa::Sse2) &&
        core::SimdIsa::Sse2 < core::bestSimdIsa();
    EXPECT_EQ(names.size(), 10u + 2u + sse2_between + 2u + 4u);
    EXPECT_EQ(names.front(), "reference");
    const auto has = [&](const std::string &n) {
        return std::find(names.begin(), names.end(), n) != names.end();
    };
    EXPECT_TRUE(has("simd-parallel"));
    EXPECT_TRUE(has("simd-parallel-scalar"));
    EXPECT_TRUE(has("batch-w3"));
    EXPECT_TRUE(has("batch-w64"));
    EXPECT_TRUE(has("dict-p1"));
    EXPECT_TRUE(has("dict-p8"));
    EXPECT_TRUE(has("dict-p64"));
    EXPECT_TRUE(has("dict-p8-chunk9"));
    EXPECT_TRUE(has("systolic-gatelevel"));
    EXPECT_TRUE(has("gate-lanes"));
    // The gate switch removes exactly the two gate-level oracles.
    const std::vector<std::string> nogate = allOracleNames(false);
    EXPECT_EQ(names.size(), nogate.size() + 2u);
}

} // namespace
} // namespace spm::conformance
