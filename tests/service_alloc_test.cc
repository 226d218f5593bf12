/**
 * @file
 * Heap-allocation gates for the batched path. This binary replaces
 * the global operator new and delete with counting versions, so it
 * stands alone: a warm serveBatch() allocates one result row per
 * admitted request and a handful of vectors per call, and a warm
 * matchMany() one row per stream plus its result vector.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/batch.hh"
#include "service/batch.hh"
#include "util/rng.hh"

namespace
{

std::atomic<std::size_t> allocations{0};

} // namespace

void *
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
