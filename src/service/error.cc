#include "service/error.hh"

namespace spm::service
{

const char *
errorCodeName(ErrorCode code)
{
    switch (code) {
    case ErrorCode::Ok:
        return "ok";
    case ErrorCode::InvalidPattern:
        return "invalid_pattern";
    case ErrorCode::AlphabetOverflow:
        return "alphabet_overflow";
    case ErrorCode::OversizedRequest:
        return "oversized_request";
    case ErrorCode::QueueOverflow:
        return "queue_overflow";
    case ErrorCode::Shed:
        return "shed";
    case ErrorCode::DeadlineExceeded:
        return "deadline_exceeded";
    case ErrorCode::BackendFailed:
        return "backend_failed";
    case ErrorCode::Cancelled:
        return "cancelled";
    case ErrorCode::InvalidCheckpoint:
        return "invalid_checkpoint";
    case ErrorCode::ShardFailed:
        return "shard_failed";
    case ErrorCode::InvalidDictionary:
        return "invalid_dictionary";
    }
    return "?";
}

std::string
ServiceError::toString() const
{
    std::string s = errorCodeName(code);
    if (!detail.empty()) {
        s += ": ";
        s += detail;
    }
    return s;
}

} // namespace spm::service
