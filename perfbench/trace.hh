/**
 * @file
 * In-memory span recording for the traced benchmark run.
 *
 * A span is one timed call from the benchmark into a layer of the
 * stack: its name is "<layer>.<call>" (the layer is the src/ module
 * the call enters: core, service, telemetry, multipattern, gate),
 * with start and end in steady-clock nanoseconds, the span that
 * caused it, and the request it served. Spans stay in memory while
 * the run measures and are written out as JSON lines at exit.
 */

#ifndef PERFBENCH_TRACE_HH
#define PERFBENCH_TRACE_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** The nowNs() value @p seconds from now. */
inline std::uint64_t
deadline(double seconds)
{
    return nowNs() + static_cast<std::uint64_t>(seconds * 1e9);
}

struct Span
{
    const char *name = "";  ///< "<layer>.<call>", a string literal
    std::uint64_t start = 0;
    std::uint64_t end = 0;
    std::int64_t parent = -1; ///< index of the causing span, -1 = root
    std::uint64_t request = 0;
};

/** The span log of one workload. */
class Tracer
{
  public:
    explicit Tracer(std::string workload_name)
        : workload(std::move(workload_name))
    {
    }

    /** Open a span; returns its id for close() and as a parent. */
    std::int64_t open(const char *name, std::int64_t parent,
                      std::uint64_t request)
    {
        log.push_back({name, nowNs(), 0, parent, request});
        return static_cast<std::int64_t>(log.size() - 1);
    }

    void close(std::int64_t id)
    {
        log[static_cast<std::size_t>(id)].end = nowNs();
    }

    const std::string &name() const { return workload; }
    const std::vector<Span> &spans() const { return log; }

    /** Summed duration of every span called @p name, in ns. */
    double totalNs(const std::string &name) const;

    /**
     * Self time per layer, in ns: each span's duration minus the part
     * its child spans cover, summed by the layer prefix of its name.
     */
    std::map<std::string, double> selfNsByLayer() const;

    /** Append one JSON object per span to @p out. */
    void appendJsonLines(std::string &out) const;

  private:
    std::string workload;
    std::vector<Span> log;
};

/** Closes its span on scope exit; a null tracer records nothing. */
class Scope
{
  public:
    Scope(Tracer *tracer, const char *name, std::int64_t parent,
          std::uint64_t request)
        : tr(tracer), id(tracer ? tracer->open(name, parent, request) : -1)
    {
    }
    ~Scope()
    {
        if (tr)
            tr->close(id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t spanId() const { return id; }

  private:
    Tracer *tr;
    std::int64_t id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH
