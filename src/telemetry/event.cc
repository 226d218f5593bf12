#include "telemetry/event.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/logging.hh"
#include "util/rng.hh"

namespace spm::telem
{

namespace
{

/** Hex '.'-joined symbols, '*' wild, '-' empty, written straight
 *  into the string's buffer. */
std::string
encodeStream(std::span<const Symbol> syms)
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

const std::string &
rungName(const EventRecord &ev, std::span<const std::string> rungs)
{
    static const std::string none = "none";
    return ev.rung < rungs.size() ? rungs[ev.rung] : none;
}

/** "seq=<n> req=<id> <event>", the replay journal's line. */
std::string
journalLine(const EventRecord &ev, std::span<const std::string> rungs)
{
    static const std::string empty, failed = "failed";
    const std::string &rung = rungName(ev, rungs);
    const std::string &detail = ev.detail ? *ev.detail : empty;
    std::ostringstream os;
    os << "seq=" << ev.seq << " req=" << ev.requestId << " ";
    switch (ev.kind) {
      case EventKind::Start:
        os << "start n=" << ev.length << " k=" << ev.count << " ladder=";
        for (std::size_t i = 0; i < rungs.size(); ++i)
            os << (i != 0 ? "," : "") << rungs[i];
        break;
      case EventKind::Resume:
        os << "resume offset=" << ev.offset << " rung=" << ev.rung
           << " ckpt=" << ev.digest;
        break;
      case EventKind::ChunkCommit:
        os << "chunk offset=" << ev.offset << "/" << ev.length
           << " rung=" << rung << " beats=" << ev.beats
           << " ckpt=" << ev.digest;
        break;
      case EventKind::Skip:
        os << "skip rung=" << rung << " reason=unsupported";
        break;
      case EventKind::Cancel:
        os << "cancel rung=" << rung << " offset=" << ev.offset << " "
           << (ev.detail ? detail : failed);
        break;
      case EventKind::CrossCheckMismatch:
        os << "crosscheck-mismatch rung=" << rung
           << " offset=" << ev.offset << " faults=" << ev.count << "/"
           << ev.limit;
        break;
      case EventKind::Done:
        os << "done ok backend=" << rung << " beats=" << ev.beats;
        break;
      case EventKind::Fail:
        os << "fail code=" << (ev.code ? ev.code : "") << " " << detail;
        break;
      case EventKind::Reject:
        os << "rejected at validation: " << detail;
        break;
      default:
        os << eventKindName(ev.kind);
        break;
    }
    return os.str();
}

/** "#<seq> <kind> beat=... shard=...", a flight recorder's line. */
std::string
flightLine(const EventRecord &ev, std::span<const std::string> rungs)
{
    std::ostringstream os;
    os << "#" << ev.seq << " " << eventKindName(ev.kind)
       << " beat=" << ev.beats << " shard=" << ev.shard
       << " req=" << ev.requestId << " offset=" << ev.offset;
    if (ev.length != 0)
        os << " length=" << ev.length;
    if (ev.code)
        os << " code=" << ev.code;
    if (ev.caseRef)
        os << " case=" << ev.caseRef.render();
    if (ev.detail)
        os << " note=" << *ev.detail;
    else if (ev.kind == EventKind::WatchdogTrip)
        os << " note=rung=" << rungName(ev, rungs)
           << " budget=" << ev.limit;
    else if (ev.kind == EventKind::CrossCheckMismatch)
        os << " note=rung=" << rungName(ev, rungs)
           << " faults=" << ev.count << "/" << ev.limit;
    else if (ev.kind == EventKind::LadderTransition)
        os << " note=" << (ev.count != 0 ? "fault budget burned" : "fall")
           << " from=" << rungName(ev, rungs) << " to_rung=" << ev.rung + 1;
    return os.str();
}

} // namespace

// ---------------------------------------------------------------- CaseRef

struct CaseRef::Body
{
    std::uint64_t requestId, offset, patternLen, textLen;
    BitWidth bits;
    std::vector<Symbol> symbols; ///< pattern then text, within the cap
};

CaseRef::CaseRef(std::uint64_t request_id, BitWidth bits,
                 std::span<const Symbol> pattern,
                 std::span<const Symbol> text, std::uint64_t offset)
{
    std::vector<Symbol> symbols;
    if (pattern.size() + text.size() <= caseLiteralCap) {
        symbols.assign(pattern.begin(), pattern.end());
        symbols.insert(symbols.end(), text.begin(), text.end());
    }
    body = std::make_shared<const Body>(
        Body{request_id, offset, pattern.size(), text.size(), bits,
             std::move(symbols)});
}

std::string
CaseRef::render() const
{
    if (!body)
        return {};
    const Body &b = *body;
    if (b.symbols.size() == b.patternLen + b.textLen) {
        const std::span<const Symbol> all(b.symbols);
        return literalCaseId(b.bits, all.first(b.patternLen),
                             all.subspan(b.patternLen));
    }
    char buf[96];
    std::snprintf(buf, sizeof buf,
                  "ref:%" PRIu64 ":%u:%" PRIu64 ":%" PRIu64 ":%" PRIu64,
                  b.requestId, b.bits, b.patternLen, b.textLen, b.offset);
    return buf;
}

// ------------------------------------------------------------ EventRecord

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::ChunkCommit: return "chunk_commit";
      case EventKind::WatchdogTrip: return "watchdog_trip";
      case EventKind::CrossCheckMismatch: return "crosscheck_mismatch";
      case EventKind::LadderTransition: return "ladder_transition";
      case EventKind::ConformanceFailure: return "conformance_failure";
      case EventKind::ShardFailover: return "shard_failover";
      case EventKind::OverlapMismatch: return "overlap_mismatch";
      case EventKind::Quarantine: return "quarantine";
      case EventKind::Note: return "note";
      case EventKind::Start: return "start";
      case EventKind::Resume: return "resume";
      case EventKind::Skip: return "skip";
      case EventKind::Cancel: return "cancel";
      case EventKind::Done: return "done";
      case EventKind::Fail: return "fail";
      case EventKind::Reject: return "rejected";
      case EventKind::Shed: return "shed";
    }
    return "unknown";
}

void
EventRecord::setDetail(std::string text)
{
    if (!text.empty())
        detail = std::make_shared<const std::string>(std::move(text));
}

// --------------------------------------------------------- FlightRecorder

FlightRecorder::FlightRecorder(std::size_t event_capacity)
    : cap(std::max<std::size_t>(event_capacity, 1))
{
}

FlightRecorder::FlightRecorder(JournalTag)
    : cap(journalCapacity), journal(true) {}

FlightRecorder &
FlightRecorder::global()
{
    // Leaked: the conformance harness may trip during teardown.
    static FlightRecorder *g = new FlightRecorder(128);
    return *g;
}

void
FlightRecorder::setRungNames(std::vector<std::string> names)
{
    rungNames = std::move(names);
}

void
FlightRecorder::push(EventRecord &&ev)
{
    ev.seq = nextSeq++;
    if (ring.size() == cap) {
        ring[oldest] = std::move(ev);
        oldest = (oldest + 1) % cap;
        return;
    }
    // The ring allocates once, on first use.
    ring.reserve(cap);
    ring.push_back(std::move(ev));
}

std::string
FlightRecorder::lines(const char *indent) const
{
    std::string out;
    for (std::size_t i = 0; i < ring.size(); ++i)
        out += indent + render(ring[(oldest + i) % ring.size()]) + "\n";
    return out;
}

void
FlightRecorder::record(EventRecord ev)
{
    std::lock_guard<std::mutex> lock(mu);
    push(std::move(ev));
}

std::string
FlightRecorder::render(const EventRecord &ev) const
{
    return journal ? journalLine(ev, rungNames) : flightLine(ev, rungNames);
}

std::string
FlightRecorder::trip(const std::string &reason, EventRecord ev)
{
    // The trip's trace instant, outside the lock; tracing follows the
    // sampling gate.
    TraceBuffer &buf = TraceBuffer::global();
    if (buf.enabled() && samplingEnabled())
        buf.record({.name = eventKindName(ev.kind),
                    .startUs = buf.nowUs(),
                    .beat = ev.beats,
                    .arg = ev.requestId,
                    .phase = SpanEvent::Phase::Instant});
    std::function<void(const std::string &)> sink;
    std::string dump;
    {
        std::lock_guard<std::mutex> lock(mu);
        std::ostringstream os;
        os << "=== flight dump: " << reason << " (" << ring.size()
           << " prior events) ===\n"
           << lines("  ");
        ev.seq = nextSeq;
        os << "  " << render(ev) << "  <-- trigger\n";
        os << "=== end flight dump ===";
        dump = os.str();

        push(std::move(ev));
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

std::vector<EventRecord>
FlightRecorder::events() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<EventRecord> out(ring.begin() + oldest, ring.end());
    out.insert(out.end(), ring.begin(), ring.begin() + oldest);
    return out;
}

std::size_t
FlightRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu);
    return ring.size();
}

std::string
FlightRecorder::dump() const
{
    std::lock_guard<std::mutex> lock(mu);
    return lines("");
}

std::uint64_t
FlightRecorder::recordedTotal() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nextSeq;
}

std::uint64_t
FlightRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mu);
    return nextSeq - ring.size();
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
    oldest = 0;
    last.clear();
    if (journal)
        nextSeq = 0;
}

std::string
literalCaseId(BitWidth bits, std::span<const Symbol> pattern,
              std::span<const Symbol> text)
{
    return "l1:" + std::to_string(bits) + ":" + encodeStream(pattern) +
           ":" + encodeStream(text);
}

// ------------------------------------------------------------- StageClock

StageClock::Reading
StageClock::read() const
{
    Reading r;
    if (!armed)
        return r;
    r.totalNs = nowNs() - t0;
    const std::uint64_t t = stageTick();
    const std::uint64_t span = (t > lastTick ? t : lastTick) - tick0;
    const double nsPerTick =
        span == 0 ? 0.0
                  : static_cast<double>(r.totalNs) /
                        static_cast<double>(span);
    for (std::size_t i = 0; i < stageCount; ++i)
        r.stageNs[i] = notedNs[i] + static_cast<std::uint64_t>(
                                        static_cast<double>(ticks[i]) *
                                        nsPerTick);
    return r;
}

void
StageClock::markSpan(Stage s)
{
    TraceBuffer &buf = TraceBuffer::global();
    const std::uint64_t us = buf.nowUs();
    buf.record({.name = stageName(s),
                .startUs = lastUs,
                .durUs = us - lastUs,
                .beat = beatCount,
                .arg = traceId});
    lastUs = us;
}

const char *
stageName(Stage s)
{
    switch (s) {
    case Stage::Admit:
        return "admit";
    case Stage::QueueWait:
        return "queue_wait";
    case Stage::Kernel:
        return "kernel";
    case Stage::CrossCheck:
        return "cross_check";
    case Stage::Journal:
        return "journal";
    case Stage::Commit:
        return "commit";
    }
    return "?";
}

// --------------------------------------------------------------- Exemplar

std::string
Exemplar::render() const
{
    std::ostringstream os;
    os << "exemplar service=" << service << " req=" << event.requestId
       << " latency_ns=" << latencyNs << " beats=" << event.beats
       << " seq=" << event.seq;
    if (forced)
        os << " forced(" << (reason ? reason : "") << ")";
    os << "\n  stages:";
    for (std::size_t i = 0; i < stageCount; ++i) {
        if (stageNs[i])
            os << " " << stageName(static_cast<Stage>(i)) << "="
               << stageNs[i] << "ns";
    }
    os << "\n  case=" << (event.caseRef ? event.caseRef.render() : "-")
       << "\n";
    return os.str();
}

// ----------------------------------------------------- ExemplarReservoir

ExemplarReservoir::ExemplarReservoir(std::size_t slowest_capacity,
                                     std::size_t uniform_capacity,
                                     std::size_t forced_capacity,
                                     std::uint64_t reservoir_seed)
    : slowCap(slowest_capacity), uniCap(uniform_capacity),
      forceCap(forced_capacity), seed(reservoir_seed)
{
}

void
ExemplarReservoir::offer(Exemplar &&e,
                         const std::function<CaseRef()> &case_fn)
{
    std::lock_guard<std::mutex> lock(mu);
    e.event.seq = seq++;

    // Decide every class before building the case ref: the common
    // path (not retained anywhere) must stay O(1).
    bool keep_forced = e.forced && forceCap > 0;

    std::size_t slow_victim = slow.size(); // == size: append
    bool keep_slow = slowCap > 0;
    if (keep_slow && slow.size() >= slowCap) {
        auto min_it = std::min_element(
            slow.begin(), slow.end(), [](const auto &a, const auto &b) {
                return a.latencyNs < b.latencyNs;
            });
        if (min_it->latencyNs >= e.latencyNs)
            keep_slow = false;
        else
            slow_victim = static_cast<std::size_t>(min_it - slow.begin());
    }

    std::uint64_t draw =
        splitmix64(seed ^ e.event.seq) % (e.event.seq + 1);
    bool keep_uniform = uniCap > 0 && draw < uniCap;

    if (!keep_forced && !keep_slow && !keep_uniform)
        return;

    if (case_fn && !e.event.caseRef)
        e.event.caseRef = case_fn();
    ++retainedCount;

    if (keep_slow) {
        if (slow_victim == slow.size())
            slow.push_back(e);
        else
            slow[slow_victim] = e;
    }
    if (keep_uniform) {
        if (uni.size() < uniCap)
            uni.push_back(e);
        else
            uni[static_cast<std::size_t>(draw)] = e;
    }
    if (keep_forced) {
        if (force.size() >= forceCap)
            force.pop_front();
        force.push_back(std::move(e));
    }
}

std::vector<Exemplar>
ExemplarReservoir::slowest() const
{
    std::lock_guard<std::mutex> lock(mu);
    std::vector<Exemplar> out = slow;
    std::sort(out.begin(), out.end(), [](const auto &a, const auto &b) {
        return a.latencyNs > b.latencyNs;
    });
    return out;
}

std::vector<Exemplar>
ExemplarReservoir::uniform() const
{
    std::lock_guard<std::mutex> lock(mu);
    return uni;
}

std::vector<Exemplar>
ExemplarReservoir::forced() const
{
    std::lock_guard<std::mutex> lock(mu);
    return {force.begin(), force.end()};
}

std::uint64_t
ExemplarReservoir::offered() const
{
    std::lock_guard<std::mutex> lock(mu);
    return seq;
}

std::uint64_t
ExemplarReservoir::retained() const
{
    std::lock_guard<std::mutex> lock(mu);
    return retainedCount;
}

std::string
ExemplarReservoir::renderText() const
{
    std::ostringstream os;
    os << "exemplars offered=" << offered()
       << " retained=" << retained() << "\n";
    auto section = [&](const char *title,
                       const std::vector<Exemplar> &es) {
        os << "[" << title << " " << es.size() << "]\n";
        for (const Exemplar &e : es)
            os << e.render();
    };
    section("forced", forced());
    section("slowest", slowest());
    section("uniform", uniform());
    return os.str();
}

// ------------------------------------------------------- RequestObserver

RequestObserver::RequestObserver(Registry &reg, const char *service_label,
                                 ExemplarReservoir *res)
    : serviceLabel(service_label), reservoir(res),
      latencyNsHist(reg.logHistogram("req.latency_ns")),
      latencyBeatsHist(reg.logHistogram("req.latency_beats"))
{
    for (std::size_t i = 0; i < stageCount; ++i) {
        stageHists[i] = &reg.logHistogram(
            std::string("req.stage.") +
            stageName(static_cast<Stage>(i)) + "_ns");
    }
}

void
RequestObserver::observe(const StageClock &clock,
                         std::uint64_t request_id, bool force,
                         const char *force_reason,
                         const std::function<CaseRef()> &case_fn)
{
    if (!clock.running())
        return;
    const StageClock::Reading split = clock.read();
    latencyNsHist.sample(static_cast<double>(split.totalNs));
    latencyBeatsHist.sample(static_cast<double>(clock.beats()));
    for (std::size_t i = 0; i < stageCount; ++i)
        if (split.stageNs[i])
            stageHists[i]->sample(static_cast<double>(split.stageNs[i]));
    if (!reservoir)
        return;
    Exemplar e;
    e.service = serviceLabel;
    e.event.requestId = request_id;
    e.event.beats = clock.beats();
    e.latencyNs = split.totalNs;
    e.stageNs = split.stageNs;
    e.forced = force;
    if (force)
        e.reason = force_reason;
    reservoir->offer(std::move(e), case_fn);
}

void
RequestObserver::noteQueueWait(std::uint64_t wait_ns)
{
    if (samplingEnabled())
        stageHists[static_cast<std::size_t>(Stage::QueueWait)]->sample(
            static_cast<double>(wait_ns));
}

} // namespace spm::telem
