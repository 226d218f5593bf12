/**
 * @file
 * Request and response records of the streaming match service.
 *
 * A request is the Section 3.1 problem (text stream, pattern with
 * wild cards) plus serving metadata: an id for the journal and an
 * optional whole-request beat deadline. The response carries the
 * result stream together with everything a host needs to audit how
 * it was produced -- which ladder rung answered, how many times the
 * service degraded, how many chunks it streamed, and the chip beats
 * it consumed.
 */

#ifndef SPM_SERVICE_REQUEST_HH
#define SPM_SERVICE_REQUEST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "service/error.hh"
#include "util/bitvec.hh"
#include "util/types.hh"

namespace spm::service
{

/** One match request submitted to the service. */
struct MatchRequest
{
    /** Caller-chosen id; echoed in the response and the journal. */
    std::uint64_t id = 0;
    std::vector<Symbol> text;
    std::vector<Symbol> pattern;
    /**
     * Whole-request beat budget; the request is cancelled with
     * DeadlineExceeded once its chunks have consumed this many beats.
     * 0 means no deadline beyond the per-window watchdog budget.
     */
    Beat deadlineBeats = 0;
    /**
     * Monotonic telem::nowNs() stamp taken when the request entered
     * an admission queue; the stage clock credits now-minus-stamp to
     * its queue-wait bucket when serving starts. 0 (never queued)
     * charges no wait. Front ends stamp this themselves; callers
     * submitting directly may leave it alone.
     */
    std::uint64_t enqueuedNs = 0;
};

/** The service's answer to one request. */
struct MatchResponse
{
    std::uint64_t id = 0;
    ServiceError error;
    /** r_i bits, one per text character; valid only when ok(). */
    BitVec result;
    /** Name of the ladder rung that produced the final chunks. */
    std::string backend;
    /** Rungs fallen during this request (0 = primary served it all). */
    std::size_t degradations = 0;
    /** Text chunks streamed; each cut one checkpoint. */
    std::size_t chunks = 0;
    /** True when the request resumed from a prior checkpoint. */
    bool resumed = false;
    /** Watchdog cancellations survived via degradation. */
    std::uint64_t watchdogTrips = 0;
    /** Cross-check mismatches caught (never silently returned). */
    std::uint64_t crossCheckFailures = 0;
    /** Chip beats consumed across all chunks and rungs. */
    Beat beats = 0;

    bool ok() const { return error.code == ErrorCode::Ok; }
};

} // namespace spm::service

#endif // SPM_SERVICE_REQUEST_HH
