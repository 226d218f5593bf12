/**
 * @file
 * The oracle registry: every Matcher-interface realization of the
 * Section 3.1 problem, wrapped with the eligibility limits the fuzzer
 * respects.
 *
 * The paper's central claim is that one algorithm is realized
 * identically at every design level; the registry is that claim made
 * executable. It holds the reference definition, the behavioral
 * array, the bit-serial pipeline, the multipass driver, the
 * bit-sliced kernel (the portable scalar tier, the best tier, and
 * every supported tier between them), the batch layer (multi-wide packing
 * and the chunked carry path), the gate-level chip (event-driven,
 * plus its 64-lane path serving a request's windows as lanes), the
 * chip cascade, and the sharded service at 1, 2 and 4
 * worker threads -- all oracles of each other.
 *
 * Eligibility limits keep the expensive fidelities (a gate-level chip
 * is ~10^4 device evaluations per beat) on cases small enough that a
 * 100k-case campaign stays tractable; `stride` additionally runs an
 * oracle on only every Nth eligible case, deterministically by index.
 */

#ifndef SPM_CONFORMANCE_ORACLES_HH
#define SPM_CONFORMANCE_ORACLES_HH

#include <memory>
#include <string>
#include <vector>

#include "conformance/case.hh"
#include "core/gatechip.hh"
#include "core/matcher.hh"

namespace spm::conformance
{

/** One matcher configuration participating in differential runs. */
struct Oracle
{
    std::unique_ptr<core::Matcher> matcher;
    /** Case limits; ineligible cases are skipped, not failed. */
    std::size_t maxText = 1 << 16;
    std::size_t maxPattern = 512;
    BitWidth maxBits = 16;
    /** Run on every Nth eligible case (1 = every case). */
    std::uint64_t stride = 1;

    std::string name() const { return matcher->name(); }

    /** Whether this oracle runs case @p c at sweep index @p index. */
    bool eligible(const Case &c, std::uint64_t index) const
    {
        return c.text.size() <= maxText &&
               c.pattern.size() <= maxPattern && c.bits <= maxBits &&
               index % stride == 0;
    }
};

/**
 * The full registry: every implementation, with the sharded service
 * at three thread counts, the SIMD kernel at every supported tier and
 * the batch layer at several pack shapes. Entry 0 is always the
 * reference matcher the differ trusts.
 */
std::vector<Oracle> makeAllOracles(bool with_gate = true);

/** Names of the configurations makeAllOracles() would return. */
std::vector<std::string> allOracleNames(bool with_gate = true);

/**
 * The sharded service behind the Matcher interface, pinned to the
 * scalar tier of the bit-sliced kernel per shard with a small minimum slice so even
 * modest texts split across all workers. Services are cached per
 * alphabet width (threads spin up once, not per case).
 */
std::unique_ptr<core::Matcher> makeShardedOracle(unsigned threads);

/** @{ The gate-lanes oracle's case limits; mut-lane-tail shares them. */
inline constexpr std::size_t gateLanesMaxText = 256;
inline constexpr std::size_t gateLanesMaxPattern = 8;
inline constexpr BitWidth gateLanesMaxBits = 3;
/** @} */

/**
 * A text cut into lane windows the way the service streams it: each
 * window re-presents the k-1 characters before its chunk. Every chunk
 * holds floor(n / lanes) characters (at least one) except the last
 * lane's, which takes the remainder -- a ragged last window.
 */
struct LaneCut
{
    std::vector<std::vector<Symbol>> windows;
    /** Per window: the leading overlap characters before its chunk. */
    std::vector<std::size_t> overlap;
};

/** Cut @p text for a pattern of length @p k (>= 1) into @p lanes. */
LaneCut cutIntoLanes(std::span<const Symbol> text, std::size_t k,
                     std::size_t lanes);

/**
 * Run @p cut through one GateLevelMatcher::matchLanes call on @p chip
 * and stitch the windows' chunk bits back into one result stream.
 */
BitVec matchLaneCut(core::GateLevelMatcher &chip, const LaneCut &cut,
                    std::span<const Symbol> pattern);

/**
 * A cascade sized per call: two chips splitting max(k, 2) cells, so
 * the pin-to-pin board wiring is exercised on every pattern shape.
 */
std::unique_ptr<core::Matcher> makeCascadeOracle();

} // namespace spm::conformance

#endif // SPM_CONFORMANCE_ORACLES_HH
