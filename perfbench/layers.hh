/**
 * @file
 * Per-layer probes for the traced run.
 *
 * Each probe replays one workload's generated inputs through the
 * public functions of the modules underneath its front end, one span
 * per call, and derives the layer metrics from the spans. Times are
 * per character (or per request) of the probed input; counts that
 * must repeat exactly are taken over a fixed prefix of the inputs.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

struct LayerMetric
{
    std::string name;
    std::string unit;
    std::string workload; ///< whose inputs the probe replays
    std::string moves;    ///< the end-to-end metric it should move
    double value = 0;
};

/**
 * Probe every layer under @p workload for @p seconds of wall time (at
 * least a fixed number of inputs), recording spans into @p tracer.
 */
std::vector<LayerMetric> probeLayers(const std::string &workload,
                                     const Sizes &sz, std::uint64_t seed,
                                     double seconds, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
