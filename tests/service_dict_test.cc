/**
 * @file
 * The dictionary serving path (service/dictserve.hh): typed
 * validation with member pinning, one-shot and chunked serving
 * bit-identical to the naive reference, bus charging, the sampled
 * cross-check, and the telemetry surface.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "multipattern/dict.hh"
#include "service/dictserve.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace spm::service
{
namespace
{

using multipattern::DictHits;
using multipattern::DictPatterns;
using multipattern::NaiveDictMatcher;

DictServiceConfig
smallConfig()
{
    DictServiceConfig cfg;
    cfg.base.alphabetBits = 3;
    cfg.base.maxTextLen = 4096;
    cfg.base.maxPatternLen = 64;
    return cfg;
}

std::vector<Symbol>
randomText(Rng &rng, std::size_t n)
{
    std::vector<Symbol> text(n);
    for (auto &c : text)
        c = static_cast<Symbol>(rng.nextBelow(8));
    return text;
}

/** One-shot serving: a session bound to @p dict, fed @p text whole. */
DictMatchService::ChunkResult
serveWhole(DictMatchService &svc, const std::vector<Symbol> &text,
           const DictPatterns &dict)
{
    DictMatchService::ChunkResult res;
    DictSession session = svc.openSession(dict, res.error);
    if (!res.ok())
        return res;
    return svc.feedChunk(session, text);
}

TEST(DictValidation, TypedRejectionsPinTheMember)
{
    DictMatchService svc(smallConfig());

    DictError err = svc.validateDict({});
    EXPECT_EQ(err.error.code, ErrorCode::InvalidDictionary);
    EXPECT_EQ(err.patternIndex, DictError::noPattern);
    EXPECT_EQ(err.toString(), "invalid_dictionary: empty dictionary");

    // The member limit is 4096: one more is rejected whole.
    DictPatterns tooMany(4097, {Symbol(1)});
    err = svc.validateDict(tooMany);
    EXPECT_EQ(err.error.code, ErrorCode::InvalidDictionary);
    EXPECT_EQ(err.patternIndex, DictError::noPattern);
    tooMany.pop_back();
    EXPECT_TRUE(svc.validateDict(tooMany).ok());

    err = svc.validateDict({{1}, {}});
    EXPECT_EQ(err.error.code, ErrorCode::InvalidPattern);
    EXPECT_EQ(err.patternIndex, 1u);
    EXPECT_EQ(err.toString(), "dict[1]: invalid_pattern: empty dict[1]");

    err = svc.validateDict({{1}, {2}, {Symbol(8)}});
    EXPECT_EQ(err.error.code, ErrorCode::AlphabetOverflow);
    EXPECT_EQ(err.patternIndex, 2u);

    EXPECT_TRUE(svc.validateDict({{1, wildcardSymbol, 7}}).ok());
}

TEST(DictServe, OneShotMatchesNaiveReference)
{
    DictMatchService svc(smallConfig());
    Rng rng(0xD1C7u);
    NaiveDictMatcher naive;
    const auto text = randomText(rng, 400);
    const DictPatterns dict = {
        {1, 2, 3},
        {2, 3},
        {wildcardSymbol, 3},
        {7, 7, 7, 7},
    };
    const auto res = serveWhole(svc, text, dict);
    ASSERT_TRUE(res.ok()) << res.error.toString();
    EXPECT_EQ(res.hits, naive.matchAll(text, dict));
    EXPECT_EQ(res.totalHits, res.hits.totalHits());
}

TEST(DictServe, RejectedRequestsCarryTheTypedError)
{
    DictMatchService svc(smallConfig());
    const auto bad = serveWhole(svc, {0, 1}, {{1}, {Symbol(9)}});
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.error.error.code, ErrorCode::AlphabetOverflow);
    EXPECT_EQ(bad.error.patternIndex, 1u);

    // Out-of-alphabet text rejects at the chunk gate.
    const auto badText = serveWhole(svc, {Symbol(9)}, {{1}});
    EXPECT_EQ(badText.error.error.code, ErrorCode::AlphabetOverflow);
}

TEST(DictServe, ChunkedSessionIsBitIdenticalToOneShot)
{
    DictMatchService oneShotSvc(smallConfig());
    // Checked: each chunk is verified after its carried tail.
    DictServiceConfig checked = smallConfig();
    checked.base.crossCheck = true;
    DictMatchService chunkedSvc(checked);
    Rng rng(0xD1C8u);
    const auto text = randomText(rng, 700);
    const DictPatterns dict = {
        {1, 2, 3, 4, 5},
        {4, 5},
        {5, wildcardSymbol, 1},
    };
    const auto oneShot = serveWhole(oneShotSvc, text, dict);
    ASSERT_TRUE(oneShot.ok());

    DictError err;
    DictSession session = chunkedSvc.openSession(dict, err);
    ASSERT_TRUE(err.ok()) << err.toString();
    ASSERT_TRUE(session.open());

    DictHits stitched;
    stitched.bits.assign(dict.size(), {});
    std::size_t at = 0;
    std::uint64_t chunks = 0;
    for (; at < text.size(); ++chunks) {
        const std::size_t len =
            std::min<std::size_t>(text.size() - at, 1 + rng.nextBelow(64));
        const std::vector<Symbol> chunk(
            text.begin() + static_cast<std::ptrdiff_t>(at),
            text.begin() + static_cast<std::ptrdiff_t>(at + len));
        const auto part = chunkedSvc.feedChunk(session, chunk);
        ASSERT_TRUE(part.ok()) << part.error.toString();
        for (std::size_t p = 0; p < dict.size(); ++p)
            stitched.bits[p].append(part.hits.bits[p].words(), 0,
                                    part.hits.bits[p].size());
        at += len;
    }
    EXPECT_EQ(stitched, oneShot.hits);
    EXPECT_EQ(session.streamed(), text.size());
    const auto snap = chunkedSvc.metricsSnapshot();
    EXPECT_EQ(snap.counterValue("crossChecks"), chunks);
    EXPECT_EQ(snap.counterValue("crossCheckFailures"), 0u);
}

TEST(DictServe, CumulativeStreamBoundIsEnforced)
{
    DictServiceConfig cfg = smallConfig();
    cfg.base.maxTextLen = 100;
    DictMatchService svc(cfg);
    DictError err;
    DictSession session = svc.openSession({{1, 2}}, err);
    ASSERT_TRUE(err.ok());

    const std::vector<Symbol> chunk(60, Symbol(1));
    EXPECT_TRUE(svc.feedChunk(session, chunk).ok());
    const auto overflow = svc.feedChunk(session, chunk);
    EXPECT_EQ(overflow.error.error.code, ErrorCode::OversizedRequest);
    // The rejected feed was a no-op: the stream still stands at 60.
    EXPECT_EQ(session.streamed(), 60u);

    DictSession neverOpened;
    const auto unopened = svc.feedChunk(neverOpened, std::vector<Symbol>{1});
    EXPECT_EQ(unopened.error.error.code, ErrorCode::InvalidDictionary);
}

TEST(DictServe, BusChargesEveryAdmittedCharacter)
{
    DictMatchService svc(smallConfig());
    const auto before = svc.config().base.bus.charsTransferred();
    const auto res =
        serveWhole(svc, std::vector<Symbol>(128, Symbol(1)), {{1, 1}});
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(svc.config().base.bus.charsTransferred(), before + 128);
}

TEST(DictServe, CrossCheckRunsCleanOnAHealthyKernel)
{
    DictServiceConfig cfg = smallConfig();
    cfg.base.crossCheck = true;
    DictMatchService svc(cfg);
    Rng rng(0xD1C9u);
    const auto text = randomText(rng, 300);
    const auto res = serveWhole(svc, text, {{1, 2}, {2, wildcardSymbol}});
    ASSERT_TRUE(res.ok()) << res.error.toString();
    const auto snap = svc.metricsSnapshot();
    EXPECT_EQ(snap.counterValue("crossChecks"), 1u);
    EXPECT_EQ(snap.counterValue("crossCheckFailures"), 0u);
}

TEST(DictServe, TelemetryCountsDictionariesChunksAndHits)
{
    DictMatchService svc(smallConfig());
    Rng rng(0xD1CAu);
    NaiveDictMatcher naive;
    const auto text = randomText(rng, 500);
    const DictPatterns dict = {{1}, {2, 3}};
    const auto res = serveWhole(svc, text, dict);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.totalHits, naive.matchAll(text, dict).totalHits());
    EXPECT_GT(res.totalHits, 0u); // single symbols over 8 letters hit
    (void)serveWhole(svc, {0, 1}, {{}}); // rejected

    // A multi-chunk session whose members straddle the chunk seams:
    // the hits counter must equal the naive total over the stream.
    const auto stream = randomText(rng, 700);
    const DictPatterns seamDict = {{4, 5, 6}, {7}, {1, 2}};
    DictError err;
    DictSession session = svc.openSession(seamDict, err);
    ASSERT_TRUE(err.ok());
    std::uint64_t chunkTotals = 0;
    std::size_t chunks = 0;
    for (std::size_t at = 0; at < stream.size(); at += 131, ++chunks) {
        const std::vector<Symbol> chunk(
            stream.begin() + static_cast<std::ptrdiff_t>(at),
            stream.begin() + static_cast<std::ptrdiff_t>(
                                 std::min(stream.size(), at + 131)));
        const auto part = svc.feedChunk(session, chunk);
        ASSERT_TRUE(part.ok());
        EXPECT_EQ(part.totalHits, part.hits.totalHits());
        chunkTotals += part.totalHits;
    }
    const std::uint64_t streamHits =
        naive.matchAll(stream, seamDict).totalHits();
    EXPECT_EQ(chunkTotals, streamHits);

    const auto snap = svc.metricsSnapshot();
    EXPECT_EQ(snap.counterValue("dictionaries"), 2u);
    EXPECT_EQ(snap.counterValue("chunks"), 1u + chunks);
    EXPECT_EQ(snap.counterValue("chunkChars"), 1200u);
    EXPECT_EQ(snap.counterValue("rejected"), 1u);
    EXPECT_EQ(snap.counterValue("hits"),
              naive.matchAll(text, dict).totalHits() + streamHits);

    const std::string dump = svc.statsDump();
    EXPECT_NE(dump.find("dict.dictionaries"), std::string::npos);
}

} // namespace
} // namespace spm::service
