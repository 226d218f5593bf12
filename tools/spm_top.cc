/**
 * @file
 * spm_top: a live request-observability dashboard.
 *
 * Renders the request-observability layer (telemetry/event) the way
 * `top` renders a kernel's process table: one row per service front
 * end with rolling request rates and exact-count p50/p90/p99/p999
 * latency columns, a per-stage breakdown line under each row, and
 * (live mode) the tail-sampled exemplar traces with their case
 * references.
 *
 * Three modes:
 *
 *   --json FILE [FILE2]   render one dumped metrics snapshot; with a
 *                         second file, render FILE2 minus FILE (an
 *                         interval, so percentiles are interval-local)
 *   --follow FILE         poll a snapshot file a storm keeps rewriting
 *                         (chaos_storm --snapshot-file) and render the
 *                         per-interval delta each tick
 *   --live                drive an in-process mixed workload through
 *                         all four front ends (streaming, sharded
 *                         under a seeded chaos storm, batch, dict)
 *                         and render rolling intervals
 *
 * Exit status: 0 on success, 2 on a usage or file error.
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/batch.hh"
#include "service/chaos.hh"
#include "service/dictserve.hh"
#include "service/service.hh"
#include "service/sharded.hh"
#include "telemetry/metrics.hh"
#include "telemetry/event.hh"
#include "util/logging.hh"

namespace
{

using spm::telem::Snapshot;

void
usage(std::FILE *out)
{
    std::fputs(
        "usage: spm_top --json FILE [FILE2]\n"
        "       spm_top --follow FILE [--interval-ms N] [--ticks N]\n"
        "       spm_top --live [--seconds S] [--interval-ms N]\n"
        "\n"
        "  --json FILE [FILE2]  render a dumped snapshot (toJson); a\n"
        "                       second file renders FILE2 minus FILE\n"
        "  --follow FILE        tail a snapshot file being rewritten\n"
        "                       (chaos_storm --snapshot-file FILE)\n"
        "  --live               in-process mixed workload across the\n"
        "                       streaming, sharded(+chaos), batch and\n"
        "                       dict front ends\n"
        "  --interval-ms N      refresh interval (default 500)\n"
        "  --ticks N            follow-mode refresh count, 0 = forever\n"
        "                       (default 0)\n"
        "  --seconds S          live-mode run length (default 5)\n"
        "  --no-clear           do not emit ANSI clear between frames\n",
        out);
}

std::string
fmtNs(double ns)
{
    char buf[32];
    if (ns < 1e3)
        std::snprintf(buf, sizeof buf, "%.0fns", ns);
    else if (ns < 1e6)
        std::snprintf(buf, sizeof buf, "%.1fus", ns / 1e3);
    else if (ns < 1e9)
        std::snprintf(buf, sizeof buf, "%.2fms", ns / 1e6);
    else
        std::snprintf(buf, sizeof buf, "%.2fs", ns / 1e9);
    return buf;
}

std::string
fmtCount(double v)
{
    char buf[32];
    if (v < 10e3)
        std::snprintf(buf, sizeof buf, "%.0f", v);
    else if (v < 10e6)
        std::snprintf(buf, sizeof buf, "%.1fk", v / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.1fM", v / 1e6);
    return buf;
}

/** Service prefixes present: every "<prefix>req.latency_ns" loghist. */
std::vector<std::string>
servicePrefixes(const Snapshot &snap)
{
    const std::string key = "req.latency_ns";
    std::vector<std::string> out;
    for (const auto &[name, h] : snap.logHistograms) {
        (void)h;
        if (name.size() >= key.size() &&
            name.compare(name.size() - key.size(), key.size(), key) == 0)
            out.push_back(name.substr(0, name.size() - key.size()));
    }
    return out;
}

/** Display label of one service prefix ("sharded." -> "sharded"). */
std::string
prefixLabel(const std::string &prefix)
{
    if (prefix.empty())
        return "stream";
    std::string label = prefix;
    if (!label.empty() && label.back() == '.')
        label.pop_back();
    return label;
}

/**
 * One dashboard frame: a row per service (requests, rate, latency
 * percentiles, beats) and a stage-share line under each row.
 *
 * @param elapsed_s interval length for the rate column; <= 0 hides it
 */
std::string
renderFrame(const Snapshot &snap, double elapsed_s)
{
    std::ostringstream os;
    char line[256];
    std::snprintf(line, sizeof line, "%-10s %8s %9s %9s %9s %9s %9s %11s\n",
                  "service", "req", "req/s", "p50", "p90", "p99", "p999",
                  "beats/req");
    os << line;

    const auto prefixes = servicePrefixes(snap);
    if (prefixes.empty())
        os << "(no req.latency_ns log-histograms in this snapshot; "
              "is it a service front end's?)\n";
    for (const std::string &prefix : prefixes) {
        const auto *lat = snap.logHistogram(prefix + "req.latency_ns");
        const auto *beats = snap.logHistogram(prefix + "req.latency_beats");
        if (lat == nullptr)
            continue;
        const std::uint64_t n = lat->samples();
        const double rate =
            elapsed_s > 0 ? static_cast<double>(n) / elapsed_s : -1.0;
        char rateCol[32];
        if (rate < 0)
            std::snprintf(rateCol, sizeof rateCol, "-");
        else
            std::snprintf(rateCol, sizeof rateCol, "%.1f", rate);
        const double beatsPer =
            (beats != nullptr && n != 0)
                ? beats->sum / static_cast<double>(n)
                : 0.0;
        std::snprintf(line, sizeof line,
                      "%-10s %8s %9s %9s %9s %9s %9s %11s\n",
                      prefixLabel(prefix).c_str(),
                      fmtCount(static_cast<double>(n)).c_str(), rateCol,
                      fmtNs(lat->quantile(0.5)).c_str(),
                      fmtNs(lat->quantile(0.9)).c_str(),
                      fmtNs(lat->quantile(0.99)).c_str(),
                      fmtNs(lat->quantile(0.999)).c_str(),
                      fmtCount(beatsPer).c_str());
        os << line;

        // Stage attribution: share of summed stage time, plus the
        // p99 of each stage that saw samples.
        double totalStage = 0.0;
        std::array<const Snapshot::LogHistogramData *,
                   spm::telem::stageCount>
            stage{};
        for (std::size_t s = 0; s < spm::telem::stageCount; ++s) {
            const char *token = spm::telem::stageName(
                static_cast<spm::telem::Stage>(s));
            stage[s] = snap.logHistogram(prefix + "req.stage." +
                                         token + "_ns");
            if (stage[s] != nullptr)
                totalStage += stage[s]->sum;
        }
        os << "  stages:";
        for (std::size_t s = 0; s < spm::telem::stageCount; ++s) {
            if (stage[s] == nullptr || stage[s]->samples() == 0)
                continue;
            const double pct =
                totalStage > 0 ? 100.0 * stage[s]->sum / totalStage : 0.0;
            const char *token = spm::telem::stageName(
                static_cast<spm::telem::Stage>(s));
            std::snprintf(line, sizeof line, " %s %.0f%% (p99 %s)",
                          token, pct,
                          fmtNs(stage[s]->quantile(0.99)).c_str());
            os << line;
        }
        os << "\n";
    }
    return os.str();
}

std::optional<Snapshot>
loadSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return Snapshot::fromJson(buf.str());
}

int
runJson(const std::string &file, const std::string &file2)
{
    auto snap = loadSnapshotFile(file);
    if (!snap) {
        std::fprintf(stderr, "spm_top: cannot parse snapshot %s\n",
                     file.c_str());
        return 2;
    }
    if (!file2.empty()) {
        auto later = loadSnapshotFile(file2);
        if (!later) {
            std::fprintf(stderr, "spm_top: cannot parse snapshot %s\n",
                         file2.c_str());
            return 2;
        }
        *snap = later->delta(*snap);
        std::printf("spm_top — interval %s .. %s\n", file.c_str(),
                    file2.c_str());
    } else {
        std::printf("spm_top — snapshot %s\n", file.c_str());
    }
    std::fputs(renderFrame(*snap, -1.0).c_str(), stdout);
    return 0;
}

int
runFollow(const std::string &file, unsigned interval_ms,
          std::uint64_t ticks, bool clear)
{
    Snapshot prev;
    bool havePrev = false;
    std::uint64_t done = 0;
    while (ticks == 0 || done < ticks) {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
        auto snap = loadSnapshotFile(file);
        ++done;
        if (!snap) {
            std::printf("spm_top — waiting for %s\n", file.c_str());
            continue;
        }
        const Snapshot view = havePrev ? snap->delta(prev) : *snap;
        if (clear)
            std::fputs("\x1b[2J\x1b[H", stdout);
        std::printf("spm_top — following %s (tick %llu, %ums)\n",
                    file.c_str(),
                    static_cast<unsigned long long>(done), interval_ms);
        std::fputs(
            renderFrame(view, havePrev ? interval_ms / 1e3 : -1.0).c_str(),
            stdout);
        std::fflush(stdout);
        prev = std::move(*snap);
        havePrev = true;
    }
    return 0;
}

/** The live-mode workload: all four front ends, one mixed round. */
class LiveWorkload
{
  public:
    LiveWorkload()
        : stream(streamConfig()),
          plan(std::make_shared<const spm::service::ChaosPlan>(
              chaosConfig())),
          sharded(shardedConfig(),
                  spm::service::makeChaosLadderFactory(
                      plan, softwareLadder())),
          batch(batchConfig()), dict(dictConfig()), rng(7)
    {
        spm::service::DictError derr;
        dictSession = dict.openSession(
            {{1, 2}, {2, spm::wildcardSymbol, 1}, {3, 3}}, derr);
    }

    /** Serve one round of requests across every front end. */
    void round()
    {
        using spm::Symbol;
        std::uniform_int_distribution<unsigned> sym(0, 3);

        // Streaming: queue a few requests, then drain (real queue
        // waits land in the queue_wait stage histogram).
        for (int i = 0; i < 4; ++i)
            stream.submit(makeRequest(96, 3));
        stream.drain();

        // Sharded under chaos: bigger texts so slicing engages.
        sharded.serve(makeRequest(1024, 4));

        // Batch: one pass, members sharing a pattern.
        std::vector<spm::service::MatchRequest> b;
        for (int i = 0; i < 6; ++i) {
            auto r = makeRequest(64, 3);
            r.pattern = {1, 2, spm::wildcardSymbol};
            r.enqueuedNs = spm::telem::nowNs();
            b.push_back(std::move(r));
        }
        batch.serveBatch(b);

        // Dict: one chunk against the bound dictionary.
        std::vector<Symbol> chunk(48);
        for (Symbol &c : chunk)
            c = static_cast<Symbol>(sym(rng));
        dict.feedChunk(dictSession, chunk, spm::telem::nowNs());
    }

    /** All four registries merged, names service-prefixed. */
    Snapshot merged() const
    {
        Snapshot all;
        addPrefixed(all, "stream.", stream.metricsSnapshot());
        // The sharded snapshot already carries its "sharded." prefix.
        addPrefixed(all, "", sharded.metricsSnapshot());
        addPrefixed(all, "batch.", batch.metricsSnapshot());
        addPrefixed(all, "dict.", dict.metricsSnapshot());
        return all;
    }

    std::string exemplarDump() const
    {
        std::string out;
        out += "== stream exemplars ==\n" +
               stream.exemplars().renderText();
        out += "== sharded exemplars ==\n" +
               sharded.exemplars().renderText();
        out += "== batch exemplars ==\n" + batch.exemplars().renderText();
        out += "== dict exemplars ==\n" + dict.exemplars().renderText();
        return out;
    }

  private:
    static spm::service::ServiceConfig streamConfig()
    {
        spm::service::ServiceConfig cfg;
        cfg.queueCapacity = 16;
        return cfg;
    }

    static spm::service::ChaosConfig chaosConfig()
    {
        spm::service::ChaosConfig cfg;
        cfg.seed = 1979;
        cfg.stallProb = 0.02;
        cfg.corruptProb = 0.02;
        cfg.targetSlots = {0, 1};
        return cfg;
    }

    static spm::service::ShardedConfig shardedConfig()
    {
        spm::service::ShardedConfig cfg;
        cfg.base.maxTextLen = 1 << 20;
        cfg.threads = 2;
        cfg.spareShards = 1;
        cfg.minShardChars = 128;
        cfg.batchDeadlineMs = 200;
        return cfg;
    }

    static spm::service::ShardedMatchService::LadderFactory
    softwareLadder()
    {
        return [](const spm::service::ServiceConfig &) {
            std::vector<std::unique_ptr<spm::service::ServiceBackend>> l;
            l.push_back(std::make_unique<spm::service::SoftwareBackend>());
            return l;
        };
    }

    static spm::service::BatchServiceConfig batchConfig()
    {
        return {};
    }

    static spm::service::DictServiceConfig dictConfig()
    {
        spm::service::DictServiceConfig cfg;
        cfg.base.crossCheck = true;
        return cfg;
    }

    spm::service::MatchRequest makeRequest(std::size_t text_len,
                                           std::size_t pattern_len)
    {
        std::uniform_int_distribution<unsigned> sym(0, 3);
        std::bernoulli_distribution wild(0.2);
        spm::service::MatchRequest req;
        req.id = ++nextId;
        req.text.reserve(text_len);
        for (std::size_t i = 0; i < text_len; ++i)
            req.text.push_back(static_cast<spm::Symbol>(sym(rng)));
        for (std::size_t i = 0; i < pattern_len; ++i)
            req.pattern.push_back(wild(rng)
                                      ? spm::wildcardSymbol
                                      : static_cast<spm::Symbol>(sym(rng)));
        return req;
    }

    static void addPrefixed(Snapshot &all, const std::string &prefix,
                            const Snapshot &part)
    {
        for (const auto &[name, v] : part.counters)
            all.counters.emplace_back(prefix + name, v);
        for (const auto &[name, v] : part.gauges)
            all.gauges.emplace_back(prefix + name, v);
        for (const auto &[name, h] : part.logHistograms)
            all.logHistograms.emplace_back(prefix + name, h);
    }

    spm::service::MatchService stream;
    std::shared_ptr<const spm::service::ChaosPlan> plan;
    spm::service::ShardedMatchService sharded;
    spm::service::BatchMatchService batch;
    spm::service::DictMatchService dict;
    spm::service::DictSession dictSession;
    std::mt19937_64 rng;
    std::uint64_t nextId = 0;
};

int
runLive(double seconds, unsigned interval_ms, bool clear)
{
    // Chaos-wrapped shards dump flight-recorder trips through warn();
    // a dashboard should not interleave with its own frames.
    spm::setLogMinLevel(spm::LogLevel::Silent);
    spm::telem::FlightRecorder::global().setDumpSink(
        [](const std::string &) {});

    LiveWorkload work;
    Snapshot prev = work.merged();
    const auto t0 = std::chrono::steady_clock::now();
    const auto end =
        t0 + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                 std::chrono::duration<double>(seconds));
    auto lastFrame = std::chrono::steady_clock::now();
    while (std::chrono::steady_clock::now() < end) {
        work.round();
        const auto now = std::chrono::steady_clock::now();
        if (now - lastFrame <
            std::chrono::milliseconds(interval_ms))
            continue;
        const double dt =
            std::chrono::duration<double>(now - lastFrame).count();
        lastFrame = now;
        Snapshot cur = work.merged();
        const Snapshot view = cur.delta(prev);
        prev = std::move(cur);
        if (clear)
            std::fputs("\x1b[2J\x1b[H", stdout);
        std::printf("spm_top — live mixed workload (interval %.1fs)\n",
                    dt);
        std::fputs(renderFrame(view, dt).c_str(), stdout);
        std::fflush(stdout);
    }

    // Final frame: lifetime totals plus the retained exemplars.
    std::printf("\nspm_top — lifetime totals\n");
    std::fputs(renderFrame(work.merged(), -1.0).c_str(), stdout);
    std::fputs(work.exemplarDump().c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string mode;
    std::string file, file2;
    unsigned interval_ms = 500;
    std::uint64_t ticks = 0;
    double seconds = 5.0;
    bool clear = true;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "spm_top: %s needs a value\n", arg);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--json") == 0) {
            mode = "json";
            file = value();
            if (i + 1 < argc && argv[i + 1][0] != '-')
                file2 = argv[++i];
        } else if (std::strcmp(arg, "--follow") == 0) {
            mode = "follow";
            file = value();
        } else if (std::strcmp(arg, "--live") == 0)
            mode = "live";
        else if (std::strcmp(arg, "--interval-ms") == 0)
            interval_ms = static_cast<unsigned>(
                std::strtoul(value(), nullptr, 10));
        else if (std::strcmp(arg, "--ticks") == 0)
            ticks = std::strtoull(value(), nullptr, 10);
        else if (std::strcmp(arg, "--seconds") == 0)
            seconds = std::strtod(value(), nullptr);
        else if (std::strcmp(arg, "--no-clear") == 0)
            clear = false;
        else if (std::strcmp(arg, "--help") == 0 ||
                 std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "spm_top: unknown option %s\n", arg);
            usage(stderr);
            return 2;
        }
    }
    if (interval_ms == 0)
        interval_ms = 1;

    if (mode == "json")
        return runJson(file, file2);
    if (mode == "follow")
        return runFollow(file, interval_ms, ticks, clear);
    if (mode == "live")
        return runLive(seconds, interval_ms, clear);
    usage(stderr);
    return 2;
}
