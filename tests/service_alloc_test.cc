/**
 * @file
 * Heap-allocation gates for the batched and streaming paths. This
 * binary replaces the global operator new and delete with counting
 * versions, so it stands alone: a warm serveBatch() allocates one
 * result row per admitted request and a handful of vectors per call,
 * a warm matchMany() one row per stream plus its result vector, and a
 * warm streaming serve copies no window.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/batch.hh"
#include "core/simdpar.hh"
#include "service/batch.hh"
#include "service/service.hh"
#include "util/rng.hh"

namespace
{

std::atomic<std::size_t> allocations{0};

} // namespace

[[gnu::noinline]] void *
operator new(std::size_t n)
{
    allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n == 0 ? 1 : n))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler never sees free() paired with new.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace spm::service
{
namespace
{

/** Heap allocations made by @p fn. */
template <typename Fn>
std::size_t
allocationsOf(Fn &&fn)
{
    const std::size_t before = allocations.load();
    fn();
    return allocations.load() - before;
}

/** 16-256-char texts over a 2-bit alphabet; pattern i % 4 of length 8. */
std::vector<MatchRequest>
shortBatch(std::size_t n)
{
    Rng rng(0xA110C);
    std::vector<std::vector<Symbol>> patterns(4, std::vector<Symbol>(8));
    for (auto &p : patterns)
        for (auto &c : p)
            c = static_cast<Symbol>(rng.nextBelow(4));
    std::vector<MatchRequest> batch(n);
    for (std::size_t i = 0; i < n; ++i) {
        batch[i].id = i;
        batch[i].pattern = patterns[i % 4];
        batch[i].text.resize(16 + rng.nextBelow(241));
        for (auto &c : batch[i].text)
            c = static_cast<Symbol>(rng.nextBelow(4));
    }
    return batch;
}

TEST(Allocations, WarmServeBatchAllocatesOneRowPerRequest)
{
    BatchServiceConfig cfg;
    BatchMatchService svc(cfg);
    const std::vector<MatchRequest> batch = shortBatch(1024);
    // Past the exemplar reservoir's fill: a call it retains builds
    // one case (up to 3 allocations) and grows no class.
    for (int warm = 0; warm < 16; ++warm)
        ASSERT_TRUE(svc.serveBatch(batch)[0].ok());
    std::vector<MatchResponse> out;
    const std::size_t n =
        allocationsOf([&] { out = svc.serveBatch(batch); });
    ASSERT_TRUE(out.back().ok()) << out.back().error.detail;
    EXPECT_LE(n, batch.size() + 8);
}

/**
 * Heap allocations of one warm serve of a 32 K-char request (k = 8,
 * 2-bit alphabet) through the SIMD rung behind MatcherBackend, at
 * @p chunk_chars per chunk, cross-check on and journal off.
 */
std::size_t
warmStreamServeAllocations(std::size_t chunk_chars)
{
    ServiceConfig cfg;
    cfg.chunkChars = chunk_chars;
    cfg.maxTextLen = 1 << 15;
    cfg.journalEnabled = false;
    std::vector<std::unique_ptr<ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<MatcherBackend>(
        std::make_unique<core::SimdParallelMatcher>()));
    MatchService svc(cfg, std::move(ladder));
    Rng rng(0x57EA);
    MatchRequest req;
    req.pattern.resize(8);
    for (auto &c : req.pattern)
        c = static_cast<Symbol>(rng.nextBelow(4));
    req.text.resize(1 << 15);
    for (auto &c : req.text)
        c = static_cast<Symbol>(rng.nextBelow(4));
    for (int warm = 0; warm < 16; ++warm)
        EXPECT_TRUE(svc.serve(req).ok());
    MatchResponse resp;
    const std::size_t n = allocationsOf([&] { resp = svc.serve(req); });
    EXPECT_TRUE(resp.ok()) << resp.error.detail;
    return n;
}

TEST(Allocations, WarmStreamServeCopiesNoWindow)
{
    // What is left per chunk is the kernel's result BitVec and the
    // cross-check's: 2 x 1,024 chunks + 18 and 2 x 8 chunks + 12 as
    // measured. A retained request builds one case (up to 3
    // allocations).
    const std::size_t small = warmStreamServeAllocations(32);
    const std::size_t large = warmStreamServeAllocations(4096);
    EXPECT_LE(small, 2066u + 3);
    EXPECT_LE(large, 28u + 3);
}

TEST(Allocations, WarmMatchManyAllocatesOneRowPerStream)
{
    const std::vector<MatchRequest> batch = shortBatch(64);
    std::vector<const std::vector<Symbol> *> streams;
    for (const MatchRequest &req : batch)
        streams.push_back(&req.text);
    core::BatchMatcher engine;
    engine.matchMany(streams, batch[0].pattern);
    std::vector<BitVec> rows;
    const std::size_t n = allocationsOf(
        [&] { rows = engine.matchMany(streams, batch[0].pattern); });
    ASSERT_EQ(rows.size(), streams.size());
    EXPECT_LE(n, streams.size() + 2);
}

} // namespace
} // namespace spm::service
