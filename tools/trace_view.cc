/**
 * @file
 * trace_view: render and validate telemetry artifacts.
 *
 * Snapshot modes read a Snapshot::toJson() document (file or stdin)
 * and re-render it: `--table` as the aligned human table, `--prom` as
 * Prometheus exposition text, `--text` as the classic "name = value"
 * dump. `--check` validates Chrome trace-event JSON structure (the
 * schema chrome://tracing and Perfetto load) and exits nonzero with a
 * description on the first violation.
 *
 * The demo modes run a small deterministic sharded-service workload
 * in-process: `--demo-trace` emits its Chrome trace, `--demo-snapshot`
 * its metrics snapshot JSON. They exist so CI can exercise the whole
 * pipeline (instrument -> record -> export -> validate) without
 * committing a binary trace.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "service/sharded.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"

namespace
{

void
usage(std::FILE *out)
{
    std::fputs(
        "usage: trace_view MODE [FILE]\n"
        "\n"
        "snapshot modes (input: Snapshot::toJson(), FILE or stdin):\n"
        "  --table          render as an aligned table\n"
        "  --prom           render as Prometheus exposition text\n"
        "  --text           render as 'name = value' lines\n"
        "\n"
        "trace modes:\n"
        "  --check          validate Chrome trace JSON (FILE or stdin)\n"
        "  --demo-trace     run a deterministic sharded demo workload\n"
        "                   and print its Chrome trace JSON\n"
        "  --demo-snapshot  same workload; print its snapshot JSON\n"
        "\n"
        "exit status: 0 ok, 1 invalid input, 2 usage error\n",
        out);
}

std::string
readAll(const char *path)
{
    if (path == nullptr || std::strcmp(path, "-") == 0) {
        std::ostringstream ss;
        ss << std::cin.rdbuf();
        return ss.str();
    }
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "trace_view: cannot open %s\n", path);
        std::exit(1);
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * A small fixed workload over the sharded service: enough text to cut
 * four shards, a pattern with one wildcard, several chunks per shard.
 * Deterministic by construction (no RNG, no wall-clock inputs).
 */
spm::service::ShardedMatchService &
demoService()
{
    static spm::service::ShardedConfig cfg = [] {
        spm::service::ShardedConfig c;
        c.base.alphabetBits = 2;
        c.base.chunkChars = 32;
        c.threads = 4;
        c.minShardChars = 64;
        return c;
    }();
    static spm::service::ShardedMatchService svc(cfg);
    return svc;
}

spm::service::MatchRequest
demoRequest()
{
    spm::service::MatchRequest req;
    req.id = 15;
    req.text.resize(600);
    for (std::size_t i = 0; i < req.text.size(); ++i)
        req.text[i] = static_cast<spm::Symbol>((i * 7 + 3) % 4);
    req.pattern = {1, spm::wildcardSymbol, 3};
    return req;
}

int
runDemo(bool want_trace)
{
    auto &buf = spm::telem::TraceBuffer::global();
    buf.setEnabled(true);

    spm::service::ShardedMatchService &svc = demoService();
    const spm::service::MatchResponse resp = svc.serve(demoRequest());
    if (!resp.ok()) {
        std::fprintf(stderr, "trace_view: demo serve failed: %s\n",
                     resp.error.detail.c_str());
        return 1;
    }

    if (want_trace) {
        const std::string json = buf.exportChromeJson("trace_view demo");
        const std::string err = spm::telem::validateChromeTrace(json);
        if (!err.empty()) {
            std::fprintf(stderr, "trace_view: demo trace invalid: %s\n",
                         err.c_str());
            return 1;
        }
        std::fputs(json.c_str(), stdout);
        std::fputc('\n', stdout);
    } else {
        std::fputs(svc.metricsSnapshot().toJson().c_str(), stdout);
        std::fputc('\n', stdout);
    }
    return 0;
}

int
renderSnapshot(const char *mode, const char *path)
{
    const std::string text = readAll(path);
    const std::optional<spm::telem::Snapshot> snap =
        spm::telem::Snapshot::fromJson(text);
    if (!snap) {
        std::fputs("trace_view: input is not a snapshot JSON document\n",
                   stderr);
        return 1;
    }
    if (std::strcmp(mode, "--table") == 0)
        std::fputs(snap->renderTable("telemetry snapshot").c_str(), stdout);
    else if (std::strcmp(mode, "--prom") == 0)
        std::fputs(snap->renderPrometheus().c_str(), stdout);
    else
        std::fputs(snap->renderText().c_str(), stdout);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        usage(stderr);
        return 2;
    }
    const char *mode = argv[1];
    const char *path = argc > 2 ? argv[2] : nullptr;
    if (argc > 3) {
        usage(stderr);
        return 2;
    }

    if (std::strcmp(mode, "--help") == 0 || std::strcmp(mode, "-h") == 0) {
        usage(stdout);
        return 0;
    }
    if (std::strcmp(mode, "--table") == 0 ||
        std::strcmp(mode, "--prom") == 0 || std::strcmp(mode, "--text") == 0)
        return renderSnapshot(mode, path);
    if (std::strcmp(mode, "--check") == 0) {
        const std::string err =
            spm::telem::validateChromeTrace(readAll(path));
        if (!err.empty()) {
            std::fprintf(stderr, "trace_view: invalid trace: %s\n",
                         err.c_str());
            return 1;
        }
        std::puts("trace ok");
        return 0;
    }
    if (std::strcmp(mode, "--demo-trace") == 0)
        return runDemo(true);
    if (std::strcmp(mode, "--demo-snapshot") == 0)
        return runDemo(false);

    std::fprintf(stderr, "trace_view: unknown mode %s\n", mode);
    usage(stderr);
    return 2;
}
