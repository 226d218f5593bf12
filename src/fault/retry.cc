#include "fault/retry.hh"

#include <string>

namespace spm::fault
{

BitVec
HostRetryController::run(const std::function<BitVec()> &attempt,
                         const std::function<bool(const BitVec &)> &verify)
{
    attempts = 0;
    backoffBeats = 0;
    for (unsigned a = 0; a <= policy.maxRetries; ++a) {
        if (a > 0)
            backoffBeats += policy.backoffBaseBeats << (a - 1);
        ++attempts;
        BitVec result = attempt();
        if (verify(result))
            return result;
    }
    throw RetryExhausted("match failed verification after " +
                         std::to_string(attempts) + " attempts (" +
                         std::to_string(backoffBeats) +
                         " backoff beats)");
}

} // namespace spm::fault
