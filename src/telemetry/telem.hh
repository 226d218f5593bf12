/**
 * @file
 * The hot-path instrumentation macro.
 *
 * Optional histogram samples go through SPM_THIST, gated at runtime
 * on telem::samplingEnabled(), so a disabled site costs one branch.
 * Load-bearing metrics -- the counters statsDump() reports and tests
 * assert on -- live in their owner and use the registry classes
 * directly. Trace events have no macro: StageClock marks and
 * FlightRecorder trips record them (see span.hh).
 */

#ifndef SPM_TELEMETRY_TELEM_HH
#define SPM_TELEMETRY_TELEM_HH

#include "telemetry/metrics.hh"

/** hist.sample(value[, count]) if sampling is runtime-enabled. */
#define SPM_THIST(hist, ...)                                          \
    do {                                                              \
        if (::spm::telem::samplingEnabled())                          \
            (hist).sample(__VA_ARGS__);                               \
    } while (0)

#endif // SPM_TELEMETRY_TELEM_HH
