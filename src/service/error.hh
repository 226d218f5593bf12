/**
 * @file
 * The service error taxonomy.
 *
 * The serving layer never reports failure as a bare boolean or a
 * stringly-typed message: every rejected, shed, cancelled or failed
 * request carries a ServiceError whose code names the exact contract
 * that was violated. Hosts route on the code (retry later on
 * QueueOverflow, fix the request on InvalidPattern, distrust the
 * backend on BackendFailed) and log the detail.
 */

#ifndef SPM_SERVICE_ERROR_HH
#define SPM_SERVICE_ERROR_HH

#include <string>

namespace spm::service
{

/** Why the service could not (fully) serve a request. */
enum class ErrorCode : unsigned char
{
    Ok,               ///< no error; the response result is valid
    InvalidPattern,   ///< empty pattern, or pattern malformed
    AlphabetOverflow, ///< a symbol outside the configured alphabet
    OversizedRequest, ///< text or pattern beyond the configured bounds
    QueueOverflow,    ///< admission queue full under the Reject policy
    Shed,             ///< evicted from the queue by a newer request
    DeadlineExceeded, ///< watchdog or request deadline cancelled it
    BackendFailed,    ///< every ladder rung failed or was exhausted
    Cancelled,        ///< the caller abandoned the streaming session
    InvalidCheckpoint,///< resume token inconsistent with the request
    ShardFailed,      ///< a shard slice died/stalled beyond recovery
    InvalidDictionary,///< dictionary empty or beyond the member limit
};

/** Stable printable name of an error code, e.g. "deadline_exceeded". */
const char *errorCodeName(ErrorCode code);

/** A typed error: the code routes, the detail explains. */
struct ServiceError
{
    ErrorCode code = ErrorCode::Ok;
    std::string detail;

    /** True when this actually carries an error. */
    explicit operator bool() const { return code != ErrorCode::Ok; }

    /** "<code_name>: <detail>" (or just the name with no detail). */
    std::string toString() const;

    static ServiceError ok() { return {}; }
    static ServiceError make(ErrorCode code, std::string detail)
    {
        return {code, std::move(detail)};
    }
};

} // namespace spm::service

#endif // SPM_SERVICE_ERROR_HH
