/**
 * @file
 * The shared admission rule set (service.hh validatePattern /
 * validateText / validateRequest) and its uniform enforcement across
 * every front end: streaming, batched, sharded and dictionary.  Each
 * front end used to carry (or skip) its own inline checks; these
 * tests pin the single-path contract -- the same malformed input
 * draws the same typed code everywhere.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "core/reference.hh"
#include "service/batch.hh"
#include "service/dictserve.hh"
#include "service/service.hh"
#include "service/sharded.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace spm::service
{
namespace
{

/** Braced symbol lists, which a span parameter cannot take. */
using Syms = std::vector<Symbol>;

ServiceConfig
smallConfig()
{
    ServiceConfig cfg;
    cfg.alphabetBits = 3; // symbols 0..7
    cfg.maxTextLen = 256;
    cfg.maxPatternLen = 64;
    return cfg;
}

TEST(ValidateHelpers, PatternRules)
{
    const ServiceConfig cfg = smallConfig();

    EXPECT_FALSE(validatePattern(cfg, Syms{1, 2, 3}));
    EXPECT_FALSE(validatePattern(cfg, Syms{wildcardSymbol, 7}));

    auto empty = validatePattern(cfg, Syms{});
    ASSERT_TRUE(empty.has_value());
    EXPECT_EQ(empty->code, ErrorCode::InvalidPattern);

    // k > 64: the configured pattern bound (one fused sweep's width).
    std::vector<Symbol> longPattern(65, Symbol(1));
    auto oversize = validatePattern(cfg, longPattern);
    ASSERT_TRUE(oversize.has_value());
    EXPECT_EQ(oversize->code, ErrorCode::OversizedRequest);

    // Out-of-alphabet byte; the wild card stays exempt.
    auto overflow = validatePattern(cfg, Syms{1, Symbol(8)});
    ASSERT_TRUE(overflow.has_value());
    EXPECT_EQ(overflow->code, ErrorCode::AlphabetOverflow);
}

TEST(ValidateHelpers, TextRules)
{
    const ServiceConfig cfg = smallConfig();

    EXPECT_FALSE(validateText(cfg, Syms{0, 7, 3}));
    EXPECT_FALSE(validateText(cfg, Syms{})); // empty text is admissible

    // Wild cards are not admitted in text.
    auto wild = validateText(cfg, Syms{wildcardSymbol});
    ASSERT_TRUE(wild.has_value());
    EXPECT_EQ(wild->code, ErrorCode::AlphabetOverflow);

    auto overflow = validateText(cfg, Syms{Symbol(8)});
    ASSERT_TRUE(overflow.has_value());
    EXPECT_EQ(overflow->code, ErrorCode::AlphabetOverflow);

    // The cumulative stream bound: 200 already seen + 57 more > 256.
    const std::vector<Symbol> chunk(57, Symbol(0));
    EXPECT_FALSE(validateText(cfg, chunk, 199));
    auto oversize = validateText(cfg, chunk, 200);
    ASSERT_TRUE(oversize.has_value());
    EXPECT_EQ(oversize->code, ErrorCode::OversizedRequest);
}

TEST(ValidateHelpers, AlphabetErrorsNameTheFirstOffender)
{
    // Admission scans once and rescans only to name the offender: the
    // detail must point at the first bad index, not the largest symbol.
    const ServiceConfig cfg = smallConfig();
    auto text = validateText(cfg, Syms{0, 9, 3, 12}, 0, "stream[4]");
    ASSERT_TRUE(text.has_value());
    EXPECT_EQ(text->detail, "stream[4][1]=9 outside alphabet of 8");

    auto pattern =
        validatePattern(cfg, Syms{wildcardSymbol, 1, 8, 30}, "dict[3]");
    ASSERT_TRUE(pattern.has_value());
    EXPECT_EQ(pattern->code, ErrorCode::AlphabetOverflow);
    EXPECT_EQ(pattern->detail, "dict[3][2]=8 outside alphabet of 8");
}

TEST(ValidateHelpers, SixteenBitAlphabetAdmitsEverySymbol)
{
    // 2^16 does not fit a Symbol; sigma must not wrap to 0 and reject
    // every non-wildcard symbol.
    ServiceConfig cfg = smallConfig();
    cfg.alphabetBits = 16;
    EXPECT_FALSE(validatePattern(cfg, Syms{Symbol(0x1234)}));
    EXPECT_FALSE(validateText(cfg, Syms{Symbol(0x0000), Symbol(0xFFFE)}));
    // The wild card stays out of text even though it is below 2^16.
    auto wild = validateText(cfg, Syms{wildcardSymbol});
    ASSERT_TRUE(wild.has_value());
    EXPECT_EQ(wild->code, ErrorCode::AlphabetOverflow);
}

TEST(ValidateHelpers, RequestComposesBothPrimitives)
{
    const ServiceConfig cfg = smallConfig();
    MatchRequest req;
    req.pattern = {1, 2};
    req.text = {0, 1, 2, 3};
    EXPECT_FALSE(validateRequest(cfg, req));

    req.pattern.clear();
    auto err = validateRequest(cfg, req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::InvalidPattern);

    req.pattern = {1};
    req.text.assign(cfg.maxTextLen + 1, Symbol(0));
    err = validateRequest(cfg, req);
    ASSERT_TRUE(err.has_value());
    EXPECT_EQ(err->code, ErrorCode::OversizedRequest);
}

/** The same three violations, through every front end. */
struct Violation
{
    std::vector<Symbol> pattern;
    ErrorCode want;
};

std::vector<Violation>
violations()
{
    return {
        {{}, ErrorCode::InvalidPattern},
        {std::vector<Symbol>(65, Symbol(1)), ErrorCode::OversizedRequest},
        {{1, Symbol(8)}, ErrorCode::AlphabetOverflow},
    };
}

TEST(ValidateFrontEnds, StreamingServiceUsesSharedRules)
{
    MatchService svc(smallConfig());
    for (const auto &v : violations()) {
        MatchRequest req;
        req.pattern = v.pattern;
        req.text = {0, 1, 2};
        auto err = svc.validate(req);
        ASSERT_TRUE(err.has_value());
        EXPECT_EQ(err->code, v.want);
    }
}

TEST(ValidateFrontEnds, BatchServiceUsesSharedRules)
{
    BatchServiceConfig cfg;
    cfg.base = smallConfig();
    BatchMatchService svc(cfg);
    for (const auto &v : violations()) {
        // serveBatch validates per request.
        MatchRequest req;
        req.pattern = v.pattern;
        req.text = {0, 1, 2};
        auto responses = svc.serveBatch({req});
        ASSERT_EQ(responses.size(), 1u);
        EXPECT_EQ(responses[0].error.code, v.want);
    }

    // Text admission shares validateText: out-of-alphabet bytes and
    // the per-request length bound reject, and each rejection is
    // counted like every other front end's.
    const auto &rejected = svc.stats().counter("rejected");
    const std::uint64_t before = rejected.value();
    MatchRequest req;
    req.pattern = {1, 2};
    req.text = {Symbol(9)};
    auto responses = svc.serveBatch({req});
    EXPECT_EQ(responses[0].error.code, ErrorCode::AlphabetOverflow);
    EXPECT_EQ(rejected.value(), before + 1);
    req.text.assign(cfg.base.maxTextLen + 1, Symbol(0));
    responses = svc.serveBatch({req});
    EXPECT_EQ(responses[0].error.code, ErrorCode::OversizedRequest);
    EXPECT_EQ(rejected.value(), before + 2);
}

TEST(ValidateFrontEnds, BatchServiceAdmitsAtMost4096Streams)
{
    BatchServiceConfig cfg;
    cfg.base = smallConfig();
    BatchMatchService svc(cfg);
    MatchRequest req;
    req.pattern = {1, 2};
    req.text = {0, 1, 2};
    const std::vector<MatchRequest> batch(4097, req);
    const auto responses = svc.serveBatch(batch);
    ASSERT_EQ(responses.size(), batch.size());
    EXPECT_TRUE(responses[4095].ok());
    EXPECT_EQ(responses[4096].error.code, ErrorCode::QueueOverflow);
    EXPECT_EQ(svc.stats().counter("rejected").value(), 1u);
}

TEST(ValidateFrontEnds, BatchServiceGroupsOnePassPerDistinctPattern)
{
    // All-distinct patterns mixed with repeated ones and rejected
    // requests: every admitted response agrees with the reference,
    // responses stay positionally parallel, and the call costs exactly
    // one kernel pass per distinct admitted pattern.
    BatchServiceConfig cfg;
    cfg.base = smallConfig();
    BatchMatchService svc(cfg);
    Rng rng(0x9A55);
    std::vector<MatchRequest> batch;
    std::vector<std::vector<Symbol>> distinct;
    for (std::size_t i = 0; i < 300; ++i) {
        MatchRequest req;
        req.id = 1000 + i;
        if (i % 3 == 0) {
            // One of three shared patterns.
            req.pattern = {Symbol(i % 9 / 3), 1};
        } else {
            // Varied length and end symbols: mostly used only once.
            req.pattern.assign(3 + i / 3 % 60, wildcardSymbol);
            req.pattern[0] = Symbol(i % 2);
            req.pattern.push_back(Symbol(i % 8));
        }
        req.text.resize(rng.nextBelow(120));
        for (auto &c : req.text)
            c = static_cast<Symbol>(rng.nextBelow(8));
        if (i % 17 == 0)
            req.text.push_back(Symbol(8)); // rejected: outside alphabet
        else if (std::find(distinct.begin(), distinct.end(),
                           req.pattern) == distinct.end())
            distinct.push_back(req.pattern);
        batch.push_back(std::move(req));
    }

    const auto &passes = svc.stats().counter("kernelPasses");
    const std::uint64_t before = passes.value();
    const auto responses = svc.serveBatch(batch);
    ASSERT_GT(distinct.size(), 150u);
    EXPECT_EQ(passes.value() - before, distinct.size());
    ASSERT_EQ(responses.size(), batch.size());
    core::ReferenceMatcher ref;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_EQ(responses[i].id, batch[i].id);
        if (i % 17 == 0) {
            EXPECT_EQ(responses[i].error.code, ErrorCode::AlphabetOverflow);
            continue;
        }
        ASSERT_EQ(responses[i].error.code, ErrorCode::Ok) << i;
        EXPECT_EQ(responses[i].backend,
                  "batch+" + svc.matcher().kernel().name());
        EXPECT_EQ(responses[i].result,
                  ref.match(batch[i].text, batch[i].pattern))
            << "request " << i;
    }
}

TEST(ValidateFrontEnds, BatchCrossCheckVerifiesEveryPassWhenOn)
{
    // Seven calls of two distinct patterns: fourteen kernel passes,
    // each checked when the check is on and none when it is off.
    core::ReferenceMatcher ref;
    for (const bool on : {true, false}) {
        BatchServiceConfig cfg;
        cfg.base = smallConfig();
        cfg.base.crossCheck = on;
        BatchMatchService svc(cfg);
        Rng rng(0xC4EC + on);
        for (int call = 0; call < 7; ++call) {
            std::vector<MatchRequest> batch(6);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                batch[i].id = i;
                batch[i].pattern = {Symbol(i % 2), wildcardSymbol, 3};
                batch[i].text.resize(20 + rng.nextBelow(100));
                for (auto &c : batch[i].text)
                    c = static_cast<Symbol>(rng.nextBelow(8));
            }
            const auto responses = svc.serveBatch(batch);
            for (std::size_t i = 0; i < batch.size(); ++i) {
                ASSERT_TRUE(responses[i].ok()) << responses[i].error.detail;
                EXPECT_EQ(responses[i].result,
                          ref.match(batch[i].text, batch[i].pattern));
            }
        }
        const telem::Registry &stats = svc.stats();
        EXPECT_EQ(stats.counter("kernelPasses").value(), 14u);
        EXPECT_EQ(stats.counter("crossChecks").value(), on ? 14u : 0u)
            << "on " << on;
        EXPECT_EQ(stats.counter("crossCheckFailures").value(), 0u);
    }
}

TEST(ValidateFrontEnds, ShardedServiceUsesSharedRules)
{
    ShardedConfig cfg;
    cfg.base = smallConfig();
    cfg.threads = 2;
    cfg.spareShards = 0;
    ShardedMatchService svc(cfg);
    for (const auto &v : violations()) {
        MatchRequest req;
        req.pattern = v.pattern;
        req.text = {0, 1, 2};
        auto err = svc.validate(req);
        ASSERT_TRUE(err.has_value());
        EXPECT_EQ(err->code, v.want);
    }
}

TEST(ValidateFrontEnds, ShardedServeRejectsWholeRequestsAsUnsharded)
{
    // A 3,000-char request over a 1,000-char bound, and an alphabet
    // error where the fourth slice would start: the sharded front end
    // admits the request whole, so code and detail are the unsharded
    // service's (not a slice's length or slice-relative offset).
    ShardedConfig cfg;
    cfg.base = smallConfig();
    cfg.base.alphabetBits = 2;
    cfg.base.maxTextLen = 1000;
    cfg.threads = 4;
    cfg.spareShards = 0;
    cfg.minShardChars = 64;
    ShardedMatchService sharded(cfg);
    MatchService plain(cfg.base);

    MatchRequest big;
    big.pattern = {1, 2};
    big.text.assign(3000, 1);
    MatchRequest bad;
    bad.pattern = {1, 2};
    bad.text.assign(1000, 1);
    bad.text[800] = 7;
    for (const MatchRequest &req : {big, bad}) {
        const MatchResponse want = plain.serve(req);
        const MatchResponse got = sharded.serve(req);
        ASSERT_FALSE(want.ok());
        EXPECT_EQ(got.error.code, want.error.code);
        EXPECT_EQ(got.error.detail, want.error.detail);
        EXPECT_TRUE(got.result.empty());
    }
    EXPECT_EQ(plain.serve(big).error.detail,
              "text of 3000 chars exceeds limit 1000");
    EXPECT_EQ(plain.serve(bad).error.detail,
              "text[800]=7 outside alphabet of 4");
}

TEST(ValidateFrontEnds, EveryFailedAdmissionCountsOnceOnEveryFrontEnd)
{
    MatchRequest bad;
    bad.pattern = {1, 2};
    bad.text = {0, Symbol(9)};

    MatchService stream(smallConfig());
    const telem::Counter &streamRejected = stream.stats().counter("rejected");
    EXPECT_FALSE(stream.submit(bad).accepted);
    EXPECT_EQ(streamRejected.value(), 1u);
    StreamSession session = stream.startSession(bad);
    EXPECT_FALSE(session.finish().ok());
    EXPECT_EQ(streamRejected.value(), 2u);
    EXPECT_FALSE(stream.serve(bad).ok());
    EXPECT_EQ(streamRejected.value(), 3u);
    EXPECT_NE(stream.statsDump().find("service.rejected = 3"),
              std::string::npos);

    ShardedConfig scfg;
    scfg.base = smallConfig();
    scfg.threads = 2;
    ShardedMatchService sharded(scfg);
    EXPECT_FALSE(sharded.serve(bad).ok());
    EXPECT_EQ(sharded.stats().counter("rejected").value(), 1u);
    EXPECT_EQ(sharded.metricsSnapshot().counterValue("sharded.rejected"), 1u);
    EXPECT_NE(sharded.statsDump().find("sharded.rejected = 1"),
              std::string::npos);

    BatchServiceConfig bcfg;
    bcfg.base = smallConfig();
    BatchMatchService batch(bcfg);
    MatchRequest good = bad;
    good.text = {0, 1};
    EXPECT_EQ(batch.serveBatch({good, bad, good}).size(), 3u);
    EXPECT_EQ(batch.stats().counter("rejected").value(), 1u);

    DictServiceConfig dcfg;
    dcfg.base = smallConfig();
    DictMatchService dict(dcfg);
    DictError err;
    DictSession open = dict.openSession({{1, 2}}, err);
    ASSERT_TRUE(err.ok());
    EXPECT_FALSE(dict.feedChunk(open, bad.text).ok());
    EXPECT_EQ(dict.stats().counter("rejected").value(), 1u);
    dict.openSession({{Symbol(9)}}, err);
    EXPECT_FALSE(err.ok());
    EXPECT_EQ(dict.stats().counter("rejected").value(), 2u);
}

TEST(ValidateFrontEnds, DictServiceUsesSharedRulesPerMember)
{
    DictServiceConfig cfg;
    cfg.base = smallConfig();
    DictMatchService svc(cfg);
    for (const auto &v : violations()) {
        // The offending member is pinned by index even when valid
        // members surround it.
        multipattern::DictPatterns dict = {{1, 2}, v.pattern, {3}};
        const DictError err = svc.validateDict(dict);
        EXPECT_EQ(err.error.code, v.want);
        EXPECT_EQ(err.patternIndex, 1u);
    }
}

/** serveBatch @p batch on a fresh service over @p cfg. */
std::vector<MatchResponse>
serveOnce(const ServiceConfig &cfg, const std::vector<MatchRequest> &batch)
{
    BatchServiceConfig bcfg;
    bcfg.base = cfg;
    BatchMatchService svc(bcfg);
    return svc.serveBatch(batch);
}

/** @p n random symbols below 4. */
std::vector<Symbol>
text4(Rng &rng, std::size_t n)
{
    std::vector<Symbol> text(n);
    for (auto &c : text)
        c = static_cast<Symbol>(rng.nextBelow(4));
    return text;
}

MatchRequest
request(std::vector<Symbol> text, std::vector<Symbol> pattern)
{
    MatchRequest req;
    req.text = std::move(text);
    req.pattern = std::move(pattern);
    return req;
}

TEST(ValidateEdges, SixteenBitSymbolsWhoseOrIsTheWildCardAdmit)
{
    // 0xFF00 | 0x00FF is 0xFFFF, the text limit at 16 bits: the OR
    // only flags the text, and the rescan admits it.
    ServiceConfig cfg = smallConfig();
    cfg.alphabetBits = 16;
    const MatchRequest ok =
        request({0xFF00, 0x00FF, 0xFF00, 0x00FF}, {0xFF00, 0x00FF});
    const MatchRequest bad = request({1, wildcardSymbol, 2}, {1});
    const auto responses = serveOnce(cfg, {ok, bad});
    ASSERT_TRUE(responses[0].ok()) << responses[0].error.detail;
    EXPECT_EQ(responses[0].result,
              core::ReferenceMatcher().match(ok.text, ok.pattern));
    EXPECT_EQ(responses[1].error.code, ErrorCode::AlphabetOverflow);
    EXPECT_EQ(responses[1].error.detail,
              "text[1]=65535 outside alphabet of 65536");
}

TEST(ValidateEdges, RejectedTextLeavesItsNeighboursRowsExact)
{
    ServiceConfig cfg = smallConfig();
    cfg.alphabetBits = 2;
    Rng rng(0xED6E);
    std::vector<MatchRequest> batch;
    for (int i = 0; i < 3; ++i)
        batch.push_back(request(text4(rng, 100), {1, 2, wildcardSymbol}));
    batch[1].text[37] = 4;
    const auto responses = serveOnce(cfg, batch);
    EXPECT_EQ(responses[1].error.detail, "text[37]=4 outside alphabet of 4");
    core::ReferenceMatcher ref;
    for (const std::size_t i : {0u, 2u}) {
        ASSERT_TRUE(responses[i].ok()) << responses[i].error.detail;
        EXPECT_EQ(responses[i].result,
                  ref.match(batch[i].text, batch[i].pattern));
    }
}

TEST(ValidateEdges, TextLengthsAroundWordEdgesMatchTheReference)
{
    const ServiceConfig cfg = smallConfig();
    Rng rng(0x3E64);
    std::vector<MatchRequest> batch;
    for (const std::size_t n : {0, 1, 4, 63, 64, 65, 127, 128, 129})
        batch.push_back(request(text4(rng, n), {3, wildcardSymbol, 1, 2, 0}));
    const auto responses = serveOnce(cfg, batch);
    core::ReferenceMatcher ref;
    for (std::size_t i = 0; i < batch.size(); ++i) {
        ASSERT_TRUE(responses[i].ok()) << responses[i].error.detail;
        EXPECT_EQ(responses[i].result,
                  ref.match(batch[i].text, batch[i].pattern))
            << batch[i].text.size() << " chars";
    }
}

TEST(ValidateEdges, StreamLimitCountsOnlyAdmittedRequests)
{
    // Three invalid requests among the first 4,096 leave room for
    // three more: requests 0..4098 hold 4,096 valid ones, and only
    // 4099 overflows.
    BatchServiceConfig bcfg;
    bcfg.base = smallConfig();
    BatchMatchService svc(bcfg);
    std::vector<MatchRequest> batch(4100, request({0, 1, 2}, {1, 2}));
    for (const std::size_t i : {7u, 2000u, 4095u})
        batch[i].text[1] = 9;
    const auto responses = svc.serveBatch(batch);
    for (const std::size_t i : {7u, 2000u, 4095u})
        EXPECT_EQ(responses[i].error.detail,
                  "text[1]=9 outside alphabet of 8");
    EXPECT_TRUE(responses[4098].ok());
    EXPECT_EQ(responses[4099].error.code, ErrorCode::QueueOverflow);
    EXPECT_EQ(responses[4099].error.detail,
              "batch width limit of 4096 streams");
    EXPECT_EQ(svc.stats().counter("streams").value(), 4096u);
    EXPECT_EQ(svc.stats().counter("rejected").value(), 4u);
}

TEST(ValidateEdges, DictMemberErrorsNameTheMember)
{
    DictServiceConfig cfg;
    cfg.base = smallConfig();
    DictMatchService svc(cfg);
    EXPECT_EQ(svc.validateDict({{1, 2}, {3}, {1, Symbol(9)}}).error.detail,
              "dict[2][1]=9 outside alphabet of 8");
    EXPECT_EQ(svc.validateDict({{1}, {}}).error.detail, "empty dict[1]");
    EXPECT_EQ(
        svc.validateDict({{1}, std::vector<Symbol>(65, 1)}).error.detail,
        "dict[1] of 65 exceeds limit 64");
}

/** One response as a golden line: verdict, row bits, backend, beats. */
std::string
renderResponse(const MatchResponse &resp)
{
    std::string out = resp.ok() ? "ok" : resp.error.toString();
    out += " bits=";
    for (std::size_t i = 0; i < resp.result.size(); ++i)
        out += resp.result.get(i) ? '1' : '0';
    out += " backend=" + std::string(resp.backend) +
           " beats=" + std::to_string(resp.beats);
    return out;
}

/**
 * A call's responses, one line each, with runs of identical renders
 * folded into one "ids a-b" line, then the service's statsDump().
 */
std::string
renderCall(const std::string &title, const BatchMatchService &svc,
           const std::vector<MatchResponse> &responses)
{
    std::string out = "== " + title + " ==\n";
    for (std::size_t i = 0; i < responses.size();) {
        const std::string line = renderResponse(responses[i]);
        std::size_t j = i + 1;
        while (j < responses.size() && renderResponse(responses[j]) == line)
            ++j;
        out += "ids " + std::to_string(responses[i].id);
        if (j - i > 1)
            out += "-" + std::to_string(responses[j - 1].id);
        out += ": " + line + "\n";
        i = j;
    }
    // Timings vary run to run: a *_ns histogram keeps its sample count.
    out += "-- stats --\n";
    const std::string stats = svc.statsDump();
    for (std::size_t at = 0; at < stats.size();) {
        const std::size_t end = stats.find('\n', at);
        std::string line = stats.substr(at, end - at);
        const std::size_t eq = line.find(" = ");
        if (eq != std::string::npos && line.compare(eq - 3, 3, "_ns") == 0)
            line = line.substr(0, line.find(' ', eq + 3));
        out += line + "\n";
        at = end + 1;
    }
    return out;
}

/** @p n random symbols below @p sigma. */
std::vector<Symbol>
textBelow(Rng &rng, std::size_t n, std::uint32_t sigma)
{
    std::vector<Symbol> text(n);
    for (auto &c : text)
        c = static_cast<Symbol>(rng.nextBelow(sigma));
    return text;
}

/** Ids 0, 1, ... in batch order. */
void
numberRequests(std::vector<MatchRequest> &batch, std::uint64_t first)
{
    for (std::size_t i = 0; i < batch.size(); ++i)
        batch[i].id = first + i;
}

/**
 * The responses and stats of a scripted batch mix -- bad characters
 * at the first, middle and last positions and at word edges, pattern
 * and size errors, empty texts and k > n, a group with no valid
 * member, a 4,100-request call with invalid texts on both sides of the
 * stream limit, and 12- and 16-bit alphabets -- with every pass
 * cross-checked, byte for byte against tests/golden/batch_responses.txt.
 * Every SIMD tier must render the same text (SPM_SIMD_ISA caps the
 * tier). On a mismatch the rendered text is written next to the test
 * binary.
 */
TEST(BatchGolden, ResponsesAndStatsMatchGolden)
{
    std::string got;
    Rng rng(0xB47C);

    {
        BatchServiceConfig cfg;
        cfg.base = smallConfig();
        cfg.base.crossCheck = true;
        BatchMatchService svc(cfg);
        const Syms p1 = {1, 2, wildcardSymbol};
        std::vector<MatchRequest> batch;
        // A group whose first member is invalid: its pass order is that
        // of its first valid member.
        batch.push_back(request(textBelow(rng, 40, 8), {6, 7}));
        batch.back().text[0] = 8;
        for (const std::size_t bad : {0, 37, 63, 64, 65, 127, 128, 129}) {
            batch.push_back(request(textBelow(rng, 130, 8), p1));
            batch.push_back(request(textBelow(rng, 130, 8), p1));
            batch.back().text[bad] = static_cast<Symbol>(8 + bad);
            batch.push_back(request(textBelow(rng, 130, 8), p1));
        }
        batch.push_back(request(textBelow(rng, 40, 8), {6, 7}));
        batch.push_back(request(textBelow(rng, 20, 8), {}));
        batch.push_back(request(textBelow(rng, 20, 8), Syms(65, 1)));
        batch.push_back(request(textBelow(rng, 20, 8), {1, 8}));
        batch.push_back(request(textBelow(rng, 257, 8), p1));
        batch.push_back(request(textBelow(rng, 256, 8), p1));
        batch.push_back(request({}, {3, 1}));
        batch.push_back(request({}, p1));
        batch.push_back(request(textBelow(rng, 4, 8), Syms(10, 2)));
        batch.push_back(request(textBelow(rng, 10, 8), Syms(10, 2)));
        // No valid member: no pass runs and none is counted.
        for (int i = 0; i < 2; ++i) {
            batch.push_back(request(textBelow(rng, 70, 8), {5, 5, 5}));
            batch.back().text[69 - 30 * i] = wildcardSymbol;
        }
        for (const std::size_t n : {1, 63, 64, 65})
            batch.push_back(request(textBelow(rng, n, 8), {4, 0}));
        numberRequests(batch, 0);
        got += renderCall("edges", svc, svc.serveBatch(batch));
    }
    {
        BatchServiceConfig cfg;
        cfg.base = smallConfig();
        cfg.base.crossCheck = false; // the batch default; a stream's is on
        BatchMatchService svc(cfg);
        std::vector<MatchRequest> batch(4100, request({0, 1, 2}, {1, 2}));
        // Two invalid texts below the limit leave room for two more
        // valid requests: 4097 is the last admitted, and 4098 (an
        // invalid text) and 4099 (an invalid pattern) overflow.
        for (std::size_t i = 2050; i < batch.size(); ++i)
            batch[i] = request({2, 1, 2, 1}, {2, 1});
        for (const std::size_t i : {7u, 2000u, 4098u})
            batch[i].text[1] = 9;
        batch[4099].pattern.clear();
        numberRequests(batch, 100);
        got += renderCall("stream limit", svc, svc.serveBatch(batch));
    }
    {
        BatchServiceConfig cfg;
        cfg.base = smallConfig();
        cfg.base.alphabetBits = 12;
        cfg.base.crossCheck = true;
        BatchMatchService svc(cfg);
        std::vector<MatchRequest> batch;
        for (const std::size_t n : {5, 70, 130}) {
            batch.push_back(request(textBelow(rng, n, 4), {3, 0x101}));
            batch.back().text[n / 2] = 0x101;
            batch.back().text[n - 1] = 0xFFF;
            batch.push_back(request(textBelow(rng, n, 4), {3, 0x101}));
            batch.push_back(request(textBelow(rng, n, 0x1000), {3, 0x101}));
            batch.back().text[n / 3] = 0x1000;
            batch.push_back(request(textBelow(rng, n, 4), {2, 1}));
            batch.push_back(request(textBelow(rng, n, 0x1000), {2, 1}));
        }
        for (std::size_t i = 0; i < batch.size(); i += 4)
            for (std::size_t at = 0; at + 1 < batch[i].text.size(); at += 9) {
                batch[i].text[at] = 3;
                batch[i].text[at + 1] = 0x101;
            }
        numberRequests(batch, 5000);
        got += renderCall("12-bit alphabet", svc, svc.serveBatch(batch));
    }
    {
        BatchServiceConfig cfg;
        cfg.base = smallConfig();
        cfg.base.alphabetBits = 16;
        cfg.base.crossCheck = true;
        BatchMatchService svc(cfg);
        std::vector<MatchRequest> batch;
        batch.push_back(request({0xFF00, 0x00FF, 0xFF00, 0x00FF, 0xABCD},
                                {0xFF00, 0x00FF}));
        batch.push_back(request({1, wildcardSymbol, 2}, {0xFF00, 0x00FF}));
        batch.push_back(request(textBelow(rng, 100, 0xFFFF), {0xFF00, 0x00FF}));
        batch.push_back(request({0x00FF, 0xFF00, 0x00FF}, {0xFF00, 0x00FF}));
        batch.push_back(request(textBelow(rng, 90, 256), {0xABCD}));
        batch.back().text[80] = 0xABCD;
        batch.push_back(
            request(textBelow(rng, 90, 0xFFFF), {7, wildcardSymbol}));
        batch.back().text[89] = wildcardSymbol;
        numberRequests(batch, 9000);
        got += renderCall("16-bit alphabet", svc, svc.serveBatch(batch));
    }

    const std::string path =
        std::string(SPM_GOLDEN_DIR) + "/batch_responses.txt";
    std::ifstream in(path);
    const std::string want((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    if (got != want) {
        const std::string actual =
            std::string(SPM_GOLDEN_OUT) + "/batch_responses.actual.txt";
        std::ofstream(actual) << got;
        ADD_FAILURE() << "render differs from " << path
                      << "; this run's render is in " << actual;
    }
}

} // namespace
} // namespace spm::service
