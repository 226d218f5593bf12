#include "trace.hh"

#include <cstdio>

namespace perfbench
{

double
Tracer::totalNs(const std::string &name) const
{
    double total = 0;
    for (const Span &s : log)
        if (name == s.name)
            total += static_cast<double>(s.end - s.start);
    return total;
}

std::map<std::string, double>
Tracer::selfNsByLayer() const
{
    std::vector<double> childNs(log.size(), 0.0);
    for (const Span &s : log)
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                static_cast<double>(s.end - s.start);
    std::map<std::string, double> self;
    for (std::size_t i = 0; i < log.size(); ++i) {
        const std::string name = log[i].name;
        const std::string layer = name.substr(0, name.find('.'));
        self[layer] += static_cast<double>(log[i].end - log[i].start) -
                       childNs[i];
    }
    return self;
}

void
Tracer::appendJsonLines(std::string &out) const
{
    char line[320];
    for (const Span &s : log) {
        std::snprintf(line, sizeof line,
                      "{\"workload\":\"%s\",\"name\":\"%s\",\"start_ns\":%llu,"
                      "\"end_ns\":%llu,\"parent\":%lld,\"request\":%llu}\n",
                      workload.c_str(), s.name,
                      static_cast<unsigned long long>(s.start),
                      static_cast<unsigned long long>(s.end),
                      static_cast<long long>(s.parent),
                      static_cast<unsigned long long>(s.request));
        out += line;
    }
}

} // namespace perfbench
