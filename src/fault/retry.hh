/**
 * @file
 * Host-side retry (recovery layer 2).
 *
 * The chip is a peripheral: the host still holds the text and the
 * pattern, so when a detection layer flags a run the cheapest remedy
 * is to run it again. Transient upsets do not recur, so one retry
 * usually clears them; a permanent fault keeps failing and the
 * bounded retry budget (with an exponential beat backoff modeling the
 * host's re-arbitration of the bus) ends in RetryExhausted, at which
 * point bypass reconfiguration (bypass.hh) is the remaining option.
 */

#ifndef SPM_FAULT_RETRY_HH
#define SPM_FAULT_RETRY_HH

#include <functional>
#include <stdexcept>
#include <vector>

#include "util/bitvec.hh"
#include "util/types.hh"

namespace spm::fault
{

/** Bounds on the host's retry loop. */
struct RetryPolicy
{
    /** Re-runs allowed after the initial failed attempt. */
    unsigned maxRetries = 3;
    /** Backoff before retry r is base << (r-1) beats. */
    Beat backoffBaseBeats = 16;
};

/** Raised when every allowed retry still failed verification. */
class RetryExhausted : public std::runtime_error
{
  public:
    explicit RetryExhausted(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {
    }
};

/**
 * Drives attempt/verify closures under a RetryPolicy. The controller
 * is protocol-agnostic: attempt() re-runs the match however the
 * caller likes (same array, spare array, degraded array) and
 * verify() applies whatever acceptance check the protection profile
 * affords (reference cross-check, or absence of detection signals).
 */
class HostRetryController
{
  public:
    explicit HostRetryController(RetryPolicy retry_policy = {})
        : policy(retry_policy)
    {
    }

    /**
     * Run attempt() until verify() accepts its result or the retry
     * budget is spent. The first attempt counts as attempt 1; only
     * subsequent ones are retries.
     *
     * @return the accepted result
     * @throws RetryExhausted when all attempts failed verification
     */
    BitVec run(const std::function<BitVec()> &attempt,
               const std::function<bool(const BitVec &)> &verify);

    /** Attempts made by the last run(), including the first. */
    unsigned lastAttempts() const { return attempts; }

    /** Total backoff beats the last run() spent waiting. */
    Beat lastBackoffBeats() const { return backoffBeats; }

  private:
    RetryPolicy policy;
    unsigned attempts = 0;
    Beat backoffBeats = 0;
};

} // namespace spm::fault

#endif // SPM_FAULT_RETRY_HH
