/**
 * @file
 * chaos_storm: drive a seeded fault storm against the sharded match
 * service from the command line.
 *
 * Wraps runChaosCampaign(): builds a sharded service whose targeted
 * slots inject stalls, dead-worker hangs, exceptions and silent bit
 * flips (plus, with --poison, gate netlists carrying the E16
 * hardest-undetected stuck-at survivors), serves seeded random
 * workloads through it, and verifies every ok() answer bit-for-bit
 * against the reference matcher. The storm is replayable: the same
 * --storm-seed fails the same windows the same way on every run.
 *
 * Exit status is the acceptance invariant itself: 0 when every
 * injected fault was either recovered exactly or rejected with a
 * typed error, 1 on any silent corruption, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "service/chaos.hh"
#include "telemetry/event.hh"
#include "util/logging.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fputs(
        "usage: chaos_storm [options]\n"
        "\n"
        "  --threads N      worker threads / primary slots (default 4)\n"
        "  --spares N       spare shard slots (default 2)\n"
        "  --requests N     requests in the campaign (default 32)\n"
        "  --text-len N     characters per request (default 2048)\n"
        "  --pattern-len N  pattern length (default 5)\n"
        "  --deadline-ms N  batch deadline, > 0 (default 200)\n"
        "  --stall P        per-window stall probability (default 0.05)\n"
        "  --hang P         per-window hang probability (default 0.01)\n"
        "  --throw P        per-window throw probability (default 0.05)\n"
        "  --corrupt P      per-window bit-flip probability "
        "(default 0.05)\n"
        "  --corrupt-at N   flip bit N of the window instead of a\n"
        "                   seeded random one (window 0 of a slice has\n"
        "                   no checkpoint tail, so N = patternLen-1 is\n"
        "                   the first kept boundary bit of slices 1+)\n"
        "  --hang-ms N      hang sleep, wall clock (default 400)\n"
        "  --cap N          max injections per slot, 0 = unlimited\n"
        "                   (default 0)\n"
        "  --all-slots      also fault the spares (default: primaries\n"
        "                   only, the clean-harvest shape)\n"
        "  --targets LIST   comma-separated slot ids to fault instead\n"
        "                   of every primary\n"
        "  --poison N       force the N hardest-undetected stuck-at\n"
        "                   survivors onto targeted gate rungs\n"
        "                   (default 0; implies the default ladder)\n"
        "  --software       software-only shard ladders (fast; default\n"
        "                   unless --poison)\n"
        "  --no-cross-check disable the per-chunk reference cross-check\n"
        "                   (leaves only the overlap cross-check)\n"
        "  --storm-seed N   injection-decision seed (default 1979)\n"
        "  --seed N         workload seed (default 2026)\n"
        "  --quiet          suppress flight-recorder dumps\n"
        "  --snapshot-file F  write the sharded service's metrics\n"
        "                   snapshot to F as JSON during the run\n"
        "                   (atomic rename; spm_top --follow F tails it)\n"
        "  --snapshot-every N snapshot after every N served requests\n"
        "                   (default 1; needs --snapshot-file)\n"
        "\n"
        "exit status: 0 zero silent corruptions, 1 corruption or lost\n"
        "request, 2 usage error\n",
        out);
}

std::uint64_t
parseNum(const char *flag, const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (end == s || *end != '\0') {
        std::fprintf(stderr, "chaos_storm: bad value for %s: %s\n", flag,
                     s);
        std::exit(2);
    }
    return v;
}

double
parseProb(const char *flag, const char *s)
{
    char *end = nullptr;
    const double v = std::strtod(s, &end);
    if (end == s || *end != '\0' || v < 0.0 || v > 1.0) {
        std::fprintf(stderr,
                     "chaos_storm: %s needs a probability in [0,1]: %s\n",
                     flag, s);
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace spm;

    service::ChaosCampaignConfig cc;
    cc.sharded.base.maxTextLen = 1 << 20;
    cc.sharded.threads = 4;
    cc.sharded.spareShards = 2;
    cc.sharded.minShardChars = 128;
    cc.sharded.batchDeadlineMs = 200;
    cc.chaos.seed = 1979;
    cc.chaos.stallProb = 0.05;
    cc.chaos.hangProb = 0.01;
    cc.chaos.throwProb = 0.05;
    cc.chaos.corruptProb = 0.05;
    cc.chaos.hangMs = 400;
    cc.requests = 32;
    cc.textLen = 2048;
    cc.patternLen = 5;
    cc.seed = 2026;

    std::size_t poison = 0;
    bool software = true;
    bool all_slots = false;
    bool quiet = false;
    std::string snapshot_file;
    std::uint64_t snapshot_every = 1;

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "chaos_storm: %s needs a value\n",
                             arg);
                std::exit(2);
            }
            return argv[++i];
        };
        if (std::strcmp(arg, "--threads") == 0)
            cc.sharded.threads =
                static_cast<unsigned>(parseNum(arg, value()));
        else if (std::strcmp(arg, "--spares") == 0)
            cc.sharded.spareShards =
                static_cast<unsigned>(parseNum(arg, value()));
        else if (std::strcmp(arg, "--requests") == 0)
            cc.requests = parseNum(arg, value());
        else if (std::strcmp(arg, "--text-len") == 0)
            cc.textLen = parseNum(arg, value());
        else if (std::strcmp(arg, "--pattern-len") == 0)
            cc.patternLen = parseNum(arg, value());
        else if (std::strcmp(arg, "--deadline-ms") == 0) {
            cc.sharded.batchDeadlineMs =
                static_cast<std::uint32_t>(parseNum(arg, value()));
            if (cc.sharded.batchDeadlineMs == 0) {
                std::fprintf(stderr,
                             "chaos_storm: --deadline-ms must be positive\n");
                return 2;
            }
        }
        else if (std::strcmp(arg, "--stall") == 0)
            cc.chaos.stallProb = parseProb(arg, value());
        else if (std::strcmp(arg, "--hang") == 0)
            cc.chaos.hangProb = parseProb(arg, value());
        else if (std::strcmp(arg, "--throw") == 0)
            cc.chaos.throwProb = parseProb(arg, value());
        else if (std::strcmp(arg, "--corrupt") == 0)
            cc.chaos.corruptProb = parseProb(arg, value());
        else if (std::strcmp(arg, "--hang-ms") == 0)
            cc.chaos.hangMs =
                static_cast<std::uint32_t>(parseNum(arg, value()));
        else if (std::strcmp(arg, "--cap") == 0)
            cc.chaos.maxInjectionsPerSlot =
                static_cast<unsigned>(parseNum(arg, value()));
        else if (std::strcmp(arg, "--corrupt-at") == 0)
            cc.chaos.corruptAt =
                static_cast<int>(parseNum(arg, value()));
        else if (std::strcmp(arg, "--all-slots") == 0)
            all_slots = true;
        else if (std::strcmp(arg, "--targets") == 0) {
            std::string list = value();
            std::size_t pos = 0;
            while (pos < list.size()) {
                std::size_t comma = list.find(',', pos);
                if (comma == std::string::npos)
                    comma = list.size();
                cc.chaos.targetSlots.push_back(static_cast<unsigned>(
                    parseNum(arg, list.substr(pos, comma - pos).c_str())));
                pos = comma + 1;
            }
        }
        else if (std::strcmp(arg, "--poison") == 0) {
            poison = parseNum(arg, value());
            software = false;
        } else if (std::strcmp(arg, "--software") == 0)
            software = true;
        else if (std::strcmp(arg, "--no-cross-check") == 0)
            cc.sharded.base.crossCheck = false;
        else if (std::strcmp(arg, "--storm-seed") == 0)
            cc.chaos.seed = parseNum(arg, value());
        else if (std::strcmp(arg, "--seed") == 0)
            cc.seed = parseNum(arg, value());
        else if (std::strcmp(arg, "--quiet") == 0)
            quiet = true;
        else if (std::strcmp(arg, "--snapshot-file") == 0)
            snapshot_file = value();
        else if (std::strcmp(arg, "--snapshot-every") == 0) {
            snapshot_every = parseNum(arg, value());
            if (snapshot_every == 0)
                snapshot_every = 1;
        }
        else if (std::strcmp(arg, "--help") == 0 ||
                 std::strcmp(arg, "-h") == 0) {
            usage(stdout);
            return 0;
        } else {
            std::fprintf(stderr, "chaos_storm: unknown option %s\n", arg);
            usage(stderr);
            return 2;
        }
    }

    if (!all_slots && cc.chaos.targetSlots.empty())
        for (unsigned s = 0; s < cc.sharded.threads; ++s)
            cc.chaos.targetSlots.push_back(s);
    if (software)
        cc.innerFactory = [](const service::ServiceConfig &) {
            std::vector<std::unique_ptr<service::ServiceBackend>> ladder;
            ladder.push_back(
                std::make_unique<service::SoftwareBackend>());
            return ladder;
        };
    if (poison > 0) {
        cc.poisonSites = service::hardestUndetectedSites(
            cc.sharded.base.cells, cc.sharded.base.alphabetBits, poison);
        std::printf("poison corpus: %zu hardest-undetected stuck-at "
                    "survivors\n",
                    cc.poisonSites.size());
    }
    if (quiet) {
        // Per-shard flight recorders dump through warn(); raising the
        // global log floor silences them all (panic is never filtered).
        setLogMinLevel(LogLevel::Silent);
        telem::FlightRecorder::global().setDumpSink(
            [](const std::string &) {});
    }

    std::string exemplar_dump;
    cc.progress = [&](std::size_t served,
                      const service::ShardedMatchService &svc) {
        if (served == cc.requests)
            exemplar_dump = svc.exemplars().renderText();
        if (snapshot_file.empty() ||
            (served % snapshot_every != 0 && served != cc.requests))
            return;
        // Write-then-rename so a concurrent spm_top --follow never
        // reads a torn snapshot.
        const std::string tmp = snapshot_file + ".tmp";
        const std::string json = svc.metricsSnapshot().toJson();
        std::FILE *f = std::fopen(tmp.c_str(), "w");
        if (f == nullptr)
            return;
        std::fwrite(json.data(), 1, json.size(), f);
        std::fclose(f);
        std::rename(tmp.c_str(), snapshot_file.c_str());
    };

    const service::ChaosCampaignReport rep =
        service::runChaosCampaign(cc);
    std::fputs(rep.renderText().c_str(), stdout);

    if (!quiet && !exemplar_dump.empty())
        std::fputs(exemplar_dump.c_str(), stdout);

    const bool intact =
        rep.silentCorruptions == 0 &&
        rep.okRequests + rep.typedFailures == rep.requests;
    std::printf("verdict: %s\n",
                intact ? "every fault recovered or typed; zero silent "
                         "corruptions"
                       : "SILENT CORRUPTION OR LOST REQUEST");
    return intact ? 0 : 1;
}
