/**
 * @file
 * Bounded admission with explicit backpressure.
 *
 * The chip consumes one character per beat no matter what; when
 * requests arrive faster than the array can drain them the service
 * must choose, visibly, what gives. The admission queue makes the
 * choice a configuration: Reject new work at the door, Shed the
 * oldest queued request to make room, or report that the producer
 * must Block (drain a request first) -- the three classic
 * backpressure policies. Every displaced request surfaces with a
 * typed ServiceError; nothing is dropped silently.
 */

#ifndef SPM_SERVICE_QUEUE_HH
#define SPM_SERVICE_QUEUE_HH

#include <cstdint>
#include <deque>
#include <optional>

#include "service/request.hh"

namespace spm::service
{

/** What the queue does when it is full and a request arrives. */
enum class BackpressurePolicy : unsigned char
{
    Reject,    ///< refuse the new request (QueueOverflow)
    ShedOldest,///< evict the oldest queued request (it is Shed)
    Block,     ///< make the producer wait: drain one, then admit
};

/** Printable policy name. */
const char *policyName(BackpressurePolicy policy);

/** Outcome of offering a request to the queue. */
struct Admission
{
    /** True when the offered request is now queued. */
    bool admitted = false;
    /**
     * Under Block, true when the offer must wait for a drain; the
     * caller processes one queued request and offers again.
     */
    bool mustDrain = false;
    /** Under ShedOldest, the request evicted to make room. */
    std::optional<MatchRequest> shed;
    /** The offered request handed back when not admitted. */
    std::optional<MatchRequest> bounced;
    /** The typed error for a refused offer (Reject at capacity). */
    ServiceError error;
};

/** A bounded FIFO of pending requests with a backpressure policy. */
class AdmissionQueue
{
  public:
    AdmissionQueue(std::size_t queue_capacity, BackpressurePolicy policy);

    /** Offer a request; see Admission for the possible outcomes. */
    Admission offer(MatchRequest req);

    /** Pop the oldest pending request, if any. */
    std::optional<MatchRequest> pop();

    std::size_t size() const { return pending.size(); }
    bool empty() const { return pending.empty(); }
    std::size_t capacity() const { return cap; }

    /** @{ Lifetime counters for the serving report. */
    std::uint64_t offered() const { return nOffered; }
    std::uint64_t admitted() const { return nAdmitted; }
    std::uint64_t rejected() const { return nRejected; }
    std::uint64_t shedCount() const { return nShed; }
    std::uint64_t blockedOffers() const { return nBlocked; }
    /** @} */

  private:
    std::size_t cap;
    BackpressurePolicy pol;
    std::deque<MatchRequest> pending;
    std::uint64_t nOffered = 0;
    std::uint64_t nAdmitted = 0;
    std::uint64_t nRejected = 0;
    std::uint64_t nShed = 0;
    std::uint64_t nBlocked = 0;
};

} // namespace spm::service

#endif // SPM_SERVICE_QUEUE_HH
