#include "telemetry/reqobs.hh"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "util/rng.hh"

namespace spm::telem
{

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
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
    os << "exemplar service=" << service << " req=" << requestId
       << " latency_ns=" << latencyNs << " beats=" << beats << " seq="
       << seq;
    if (forced)
        os << " forced(" << reason << ")";
    os << "\n  stages:";
    for (std::size_t i = 0; i < stageCount; ++i) {
        if (stageNs[i])
            os << " " << stageName(static_cast<Stage>(i)) << "="
               << stageNs[i] << "ns";
    }
    os << "\n  case=" << (caseId.empty() ? "-" : caseId) << "\n";
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
                         const std::function<std::string()> &case_id_fn)
{
    std::lock_guard<std::mutex> lock(mu);
    e.seq = seq++;

    // Decide every class before materializing the case ID: the common
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

    std::uint64_t draw = splitmix64(seed ^ e.seq) % (e.seq + 1);
    bool keep_uniform = uniCap > 0 && draw < uniCap;

    if (!keep_forced && !keep_slow && !keep_uniform)
        return;

    if (case_id_fn && e.caseId.empty())
        e.caseId = case_id_fn();
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

void
ExemplarReservoir::clear()
{
    std::lock_guard<std::mutex> lock(mu);
    slow.clear();
    uni.clear();
    force.clear();
    seq = 0;
    retainedCount = 0;
}

// ------------------------------------------------------- RequestObserver

#ifndef SPM_TELEM_OFF

RequestObserver::RequestObserver(Registry &reg,
                                 std::string service_label,
                                 ExemplarReservoir *res)
    : serviceLabel(std::move(service_label)), reservoir(res),
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
                         const std::function<std::string()> &case_id_fn)
{
    if (!clock.running())
        return;
    std::uint64_t total = clock.totalNs();
    latencyNsHist.sample(static_cast<double>(total));
    latencyBeatsHist.sample(static_cast<double>(clock.beats()));
    for (std::size_t i = 0; i < stageCount; ++i) {
        std::uint64_t v = clock.stageNs(static_cast<Stage>(i));
        if (v)
            stageHists[i]->sample(static_cast<double>(v));
    }
    if (!reservoir)
        return;
    Exemplar e;
    e.service = serviceLabel;
    e.requestId = request_id;
    e.latencyNs = total;
    e.beats = clock.beats();
    for (std::size_t i = 0; i < stageCount; ++i)
        e.stageNs[i] = clock.stageNs(static_cast<Stage>(i));
    e.forced = force;
    if (force && force_reason)
        e.reason = force_reason;
    reservoir->offer(std::move(e), case_id_fn);
}

void
RequestObserver::noteQueueWait(std::uint64_t wait_ns)
{
    if (samplingEnabled())
        stageHists[static_cast<std::size_t>(Stage::QueueWait)]->sample(
            static_cast<double>(wait_ns));
}

#else // SPM_TELEM_OFF: the observer exists but registers and records
      // nothing -- req.* metrics vanish from snapshots entirely.

RequestObserver::RequestObserver(Registry &, std::string service_label,
                                 ExemplarReservoir *res)
    : serviceLabel(std::move(service_label)), reservoir(res)
{
}

void
RequestObserver::observe(const StageClock &, std::uint64_t, bool,
                         const char *,
                         const std::function<std::string()> &)
{
}

void
RequestObserver::noteQueueWait(std::uint64_t)
{
}

#endif // SPM_TELEM_OFF

} // namespace spm::telem
