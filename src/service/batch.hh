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
 * taxonomy before it touches the kernel, the bus model charges every
 * admitted character (batched, not per character), a sampled
 * cross-check replays whole passes against the reference matcher, and
 * batch width lands in a telemetry histogram so capacity planning can
 * see the real distribution, not an average.
 */

#ifndef SPM_SERVICE_BATCH_HH
#define SPM_SERVICE_BATCH_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/batch.hh"
#include "service/service.hh"

namespace spm::service
{

/** Configuration of the batched request path. */
struct BatchServiceConfig
{
    /** Bounds, alphabet and bus shared with the other front ends. */
    FrontEndConfig base;
    /**
     * Replay every Nth kernel pass through the reference matcher and
     * compare bit for bit (0 disables). Sampling, not per-chunk: the
     * batched path trades the streaming service's every-chunk audit
     * for throughput and leans on the conformance harness instead.
     */
    unsigned crossCheckEvery = 0;
};

/**
 * The batched match service. stats(): counters batches, streams,
 * streamChars, kernelPasses, rejected, crossChecks,
 * crossCheckFailures; histogram batch_width (streams per kernel
 * pass); statsDump() prints them as "batch.x = n". An exemplar is one
 * call, named by its lead stream's case; a sampled cross-check
 * mismatch force-retains it.
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
    /** One kernel pass over @p texts plus the sampled cross-check. */
    std::vector<BitVec> runPass(
        const std::vector<const std::vector<Symbol> *> &texts,
        const std::vector<Symbol> &pattern, bool &checked,
        std::uint64_t &mismatches, telem::StageClock &clock);

    BatchServiceConfig cfg;
    core::BatchMatcher engine;
    /** "batch+<kernel>", the backend every response names. */
    const std::string backendName;

    telem::Counter &batchesCtr;
    telem::Counter &streamsCtr;
    telem::Counter &streamCharsCtr;
    telem::Counter &kernelPassesCtr;
    telem::Counter &crossChecksCtr;
    telem::Counter &crossCheckFailuresCtr;
    telem::LogHistogram &batchWidthHist;
};

} // namespace spm::service

#endif // SPM_SERVICE_BATCH_HH
