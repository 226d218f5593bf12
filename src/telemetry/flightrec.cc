#include "telemetry/flightrec.hh"

#include <sstream>
#include <utility>

#include "util/logging.hh"

namespace spm::telem
{

const char *
flightKindName(FlightKind kind)
{
    switch (kind) {
      case FlightKind::ChunkCommit: return "chunk_commit";
      case FlightKind::WatchdogTrip: return "watchdog_trip";
      case FlightKind::CrossCheckMismatch: return "crosscheck_mismatch";
      case FlightKind::LadderTransition: return "ladder_transition";
      case FlightKind::ConformanceFailure: return "conformance_failure";
      case FlightKind::ShardFailover: return "shard_failover";
      case FlightKind::OverlapMismatch: return "overlap_mismatch";
      case FlightKind::Quarantine: return "quarantine";
      case FlightKind::Note: return "note";
    }
    return "unknown";
}

std::string
FlightEvent::render() const
{
    std::ostringstream os;
    os << "#" << seq << " " << flightKindName(kind) << " beat=" << beat
       << " shard=" << shard << " req=" << requestId
       << " offset=" << offset;
    if (!code.empty())
        os << " code=" << code;
    if (!caseId.empty())
        os << " case=" << caseId;
    if (!note.empty())
        os << " note=" << note;
    return os.str();
}

FlightRecorder::FlightRecorder(std::size_t event_capacity)
    : cap(event_capacity == 0 ? 1 : event_capacity)
{
}

FlightRecorder &
FlightRecorder::global()
{
    // Leaked: the conformance harness may trip during teardown.
    static FlightRecorder *g = new FlightRecorder(128);
    return *g;
}

void
FlightRecorder::record(FlightEvent ev)
{
    std::lock_guard<std::mutex> lock(mu);
    ev.seq = nextSeq++;
    ring.push_back(std::move(ev));
    while (ring.size() > cap)
        ring.pop_front();
}

std::string
FlightRecorder::trip(const std::string &reason, FlightEvent ev)
{
    std::function<void(const std::string &)> sink;
    std::string dump;
    {
        std::lock_guard<std::mutex> lock(mu);
        ev.seq = nextSeq++;

        std::ostringstream os;
        os << "=== flight dump: " << reason << " (" << ring.size()
           << " prior events) ===\n";
        for (const FlightEvent &prior : ring)
            os << "  " << prior.render() << "\n";
        os << "  " << ev.render() << "  <-- trigger\n";
        os << "=== end flight dump ===";
        dump = os.str();

        ring.push_back(std::move(ev));
        while (ring.size() > cap)
            ring.pop_front();
        ++trips;
        last = dump;
        sink = dumpSink;
    }
    // Sink runs outside the lock; it may log or call back in.
    if (sink)
        sink(dump);
    else
        spm_warn(dump);
    return dump;
}

std::string
FlightRecorder::lastDump() const
{
    std::lock_guard<std::mutex> lock(mu);
    return last;
}

std::uint64_t
FlightRecorder::tripCount() const
{
    std::lock_guard<std::mutex> lock(mu);
    return trips;
}

std::vector<FlightEvent>
FlightRecorder::events() const
{
    std::lock_guard<std::mutex> lock(mu);
    return {ring.begin(), ring.end()};
}

std::uint64_t
FlightRecorder::recordedTotal() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nextSeq;
}

void
FlightRecorder::setDumpSink(std::function<void(const std::string &)> sink)
{
    std::lock_guard<std::mutex> lock(mu);
    dumpSink = std::move(sink);
}

void
FlightRecorder::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    ring.clear();
    last.clear();
}

namespace
{

/** Hex '.'-joined symbols, '*' wild, '-' empty.  Written straight
 *  into the string's buffer: a retained exemplar encodes its whole
 *  text, so this loop runs once per character. */
std::string
encodeStream(const std::vector<Symbol> &syms)
{
    if (syms.empty())
        return "-";
    static constexpr char hexDigits[] = "0123456789abcdef";
    // At most four hex digits and one separator per 16-bit symbol.
    std::string out(syms.size() * 5, '\0');
    char *at = out.data();
    for (std::size_t i = 0; i < syms.size(); ++i) {
        if (i != 0)
            *at++ = '.';
        const Symbol c = syms[i];
        if (c == wildcardSymbol) {
            *at++ = '*';
            continue;
        }
        int shift = 12;
        while (shift > 0 && (c >> shift) == 0)
            shift -= 4;
        for (; shift >= 0; shift -= 4)
            *at++ = hexDigits[(c >> shift) & 0xF];
    }
    out.resize(static_cast<std::size_t>(at - out.data()));
    return out;
}

} // namespace

std::string
literalCaseId(BitWidth bits, const std::vector<Symbol> &pattern,
              const std::vector<Symbol> &text)
{
    return "l1:" + std::to_string(bits) + ":" + encodeStream(pattern) +
           ":" + encodeStream(text);
}

} // namespace spm::telem
