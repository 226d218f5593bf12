/**
 * @file
 * The batched request path.
 *
 * The streaming service (service.hh) optimizes one stream's latency
 * and resilience; this front end optimizes fleet throughput -- the
 * north-star serving shape where millions of short independent
 * streams arrive together and the kernel's plane words are kept full
 * by batch width, not by any single stream's length. Requests that
 * share a pattern ride one core::BatchMatcher pass; requests with
 * distinct patterns still share the call but cost one pass each.
 *
 * The front end keeps the serving-layer contract of its streaming
 * sibling: every request is validated against the typed error
 * taxonomy before the kernel publishes anything for it, the bus model
 * charges every admitted character (batched, not per character), the
 * cross-check, when on, verifies every pass before it is published,
 * and batch width lands in a telemetry histogram so capacity planning
 * can see the real distribution, not an average.
 *
 * Each text is read once before the kernel transposes it. The checks
 * that read no character (pattern, size) and the grouping by pattern
 * come first; then the packing pass narrows each text into the
 * kernel's byte arena, and the OR it returns is the text's alphabet
 * verdict. Only a text that fails is read again, to name the first
 * offending character; it is never kept, so no pass reads it.
 */

#ifndef SPM_SERVICE_BATCH_HH
#define SPM_SERVICE_BATCH_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/batch.hh"
#include "service/service.hh"

namespace spm::service
{

/** Configuration of the batched request path. */
struct BatchServiceConfig
{
    /**
     * Shared with the other front ends. The check is off by default:
     * the batched path leans on the conformance harness instead.
     */
    FrontEndConfig base{.crossCheck = false};
};

/**
 * The batched match service. stats(): counters batches, streams,
 * streamChars, kernelPasses, rejected, crossChecks (passes checked),
 * crossCheckFailures (passes that mismatched, each failing every
 * member); histogram batch_width (streams per kernel pass); statsDump()
 * prints them as "batch.x = n". An exemplar is one call, named by its
 * lead stream's case; a cross-check mismatch force-retains it.
 */
class BatchMatchService : public FrontEnd
{
  public:
    explicit BatchMatchService(BatchServiceConfig config);

    const BatchServiceConfig &config() const { return cfg; }

    /**
     * Serve many one-shot requests in as few kernel passes as their
     * patterns allow. Responses are positionally parallel to
     * @p batch; each is independently validated, so one malformed
     * request rejects alone instead of failing the batch. Requests
     * past the call's 4096-stream admission bound are rejected with
     * QueueOverflow.
     */
    std::vector<MatchResponse> serveBatch(
        const std::vector<MatchRequest> &batch);

    /** The wrapped batch matcher (kernel tier, last widths). */
    const core::BatchMatcher &matcher() const { return engine; }

  private:
    BatchServiceConfig cfg;
    core::BatchMatcher engine;
    /** "batch+<kernel>", interned by the first call that admits. */
    std::string_view backendName;
    // Per-call scratch, cleared each call; capacity is kept.
    std::vector<std::uint32_t> groupSlots; ///< 1 + a group's first request
    std::vector<std::uint32_t> groupOf;    ///< each request's group
    std::vector<std::size_t> groupChars;   ///< characters per group
    std::vector<std::vector<std::size_t>> members; ///< admitted, per group
    std::vector<std::uint32_t> passOrder; ///< by first admitted member

    telem::Counter &batchesCtr;
    telem::Counter &streamsCtr;
    telem::Counter &streamCharsCtr;
    telem::Counter &kernelPassesCtr;
    telem::LogHistogram &batchWidthHist;
};

} // namespace spm::service

#endif // SPM_SERVICE_BATCH_HH
