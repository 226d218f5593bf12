/**
 * @file
 * Hot-path instrumentation macros.
 *
 * Instrumentation sites in the simulators and the service go through
 * these macros rather than calling the telemetry classes directly;
 * each site is gated at runtime (TraceBuffer enable + category mask,
 * telem::samplingEnabled()), so a disabled site costs one branch.
 *
 * Only *optional* instrumentation goes through macros. Load-bearing
 * metrics -- the counters statsDump() reports and tests assert on --
 * live in their owner and use the registry classes directly.
 *
 * Span macros create a scope-local RAII object; the name is built
 * with __LINE__ so two spans can share a scope.
 */

#ifndef SPM_TELEMETRY_TELEM_HH
#define SPM_TELEMETRY_TELEM_HH

#include "telemetry/metrics.hh"
#include "telemetry/span.hh"

#define SPM_TELEM_CONCAT2(a, b) a##b
#define SPM_TELEM_CONCAT(a, b) SPM_TELEM_CONCAT2(a, b)

/**
 * Time the enclosing scope as a Chrome 'X' span in the global trace
 * buffer. @p name must be a string literal; @p category a telem::cat
 * bit; @p beat and @p arg are stamped on the event.
 */
#define SPM_TSPAN(name, category, beat, arg)                          \
    ::spm::telem::ScopedSpan SPM_TELEM_CONCAT(spmTelemSpan_,          \
                                              __LINE__)(             \
        ::spm::telem::TraceBuffer::global(), name, category,          \
        beat, arg)

/** Same, but named so the scope can setBeat() before exit. */
#define SPM_TSPAN_NAMED(var, name, category, beat, arg)               \
    ::spm::telem::ScopedSpan var(                                     \
        ::spm::telem::TraceBuffer::global(), name, category, beat, arg)

/** Drop a Chrome 'I' instant into the global trace buffer. */
#define SPM_TINSTANT(name, category, beat, arg)                       \
    ::spm::telem::instant(::spm::telem::TraceBuffer::global(), name,  \
                          category, beat, arg)

/** hist.sample(value[, count]) if sampling is runtime-enabled. */
#define SPM_THIST(hist, ...)                                          \
    do {                                                              \
        if (::spm::telem::samplingEnabled())                          \
            (hist).sample(__VA_ARGS__);                               \
    } while (0)

#endif // SPM_TELEMETRY_TELEM_HH
