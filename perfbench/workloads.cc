#include "workloads.hh"

#include <sched.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <stdexcept>

#include "core/reference.hh"
#include "core/simdpar.hh"
#include "util/rng.hh"

namespace perfbench
{

using namespace spm;
using service::MatchRequest;
using service::MatchResponse;

namespace
{

/** Calls between two timed front-end constructions. */
constexpr std::uint64_t setupEvery = 16;

std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Input streams, one per generator, so no two inputs share a draw. */
enum Stream : std::uint64_t
{
    LongScan = 1,
    BatchPool,
    BatchCall,
    DictMembers,
    DictChunks,
    PaperChip,
};

std::uint64_t
streamSeed(std::uint64_t seed, Stream stream, std::uint64_t index)
{
    return mix64(mix64(seed ^ (static_cast<std::uint64_t>(stream) << 56)) ^
                 index);
}

/** Peak resident memory of this process image, from VmHWM. */
double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/**
 * Times a fixed piece of the benchmark's own work: four independent
 * multiply chains and a sweep over a 256 KB buffer. No code under test
 * runs in it, so its time tracks only how much of the CPU the host
 * gives this thread.
 */
class HostProbe
{
  public:
    HostProbe() : buffer(32768)
    {
        for (std::size_t i = 0; i < buffer.size(); ++i)
            buffer[i] = mix64(i);
    }

    double ns()
    {
        const std::uint64_t t0 = nowNs();
        std::uint64_t a = 1, b = 2, c = 3, d = 4;
        for (int i = 0; i < 40000; ++i) {
            a = a * 0x9E3779B97F4A7C15ULL + 1;
            b = b * 0xBF58476D1CE4E5B9ULL + 3;
            c = c * 0x94D049BB133111EBULL + 5;
            d = d * 0xD6E8FEB86659FD93ULL + 7;
        }
        std::uint64_t sum = 0;
        for (int pass = 0; pass < 4; ++pass)
            for (std::uint64_t v : buffer)
                sum += v ^ a;
        sink = a ^ b ^ c ^ d ^ sum;
        return static_cast<double>(nowNs() - t0);
    }

  private:
    std::vector<std::uint64_t> buffer;
    volatile std::uint64_t sink = 0;
};

/**
 * Moves the client thread to the next of its allowed CPUs every
 * slotNs, and books each call and set-up under the slot it ran in. On
 * a shared host a slow phase usually holds some CPUs at a time, and a
 * busy thread stays on its CPU, so without rotation a whole run can
 * land on a slow one. Each slot is scored by the host probe at its
 * start and end; the timing metrics read the slots the host ran
 * fastest (quietCalls in main.cc). Threads the client starts inherit
 * its CPUs, which is why long_scan rotates a pair. The original
 * affinity is restored at the end.
 */
class CpuRotor
{
  public:
    static constexpr std::uint64_t slotNs = 100'000'000;

    explicit CpuRotor(unsigned width) : span(width)
    {
        CPU_ZERO(&original);
        if (sched_getaffinity(0, sizeof original, &original) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &original))
                    cpus.push_back(c);
    }
    ~CpuRotor()
    {
        if (!cpus.empty())
            sched_setaffinity(0, sizeof original, &original);
    }
    CpuRotor(const CpuRotor &) = delete;
    CpuRotor &operator=(const CpuRotor &) = delete;

    /** Start the first slot, or the next one when this one's time is up. */
    void tick(E2EResult &r)
    {
        if (!r.slots.empty() && nowNs() < slotEnd)
            return;
        if (!r.slots.empty())
            r.slots.back().probeNs += probe.ns();
        apply(static_cast<unsigned>(r.slots.size()));
        SlotRecord s;
        s.firstCall = static_cast<std::uint32_t>(r.callNs.size());
        s.firstSetup = static_cast<std::uint32_t>(r.setupNs.size());
        s.probeNs = probe.ns();
        r.slots.push_back(s);
        slotEnd = nowNs() + slotNs;
    }

    /** Close the last slot and read the peak memory, once the run ends. */
    void finish(E2EResult &r)
    {
        r.peakRssMb = peakRssMb();
        r.slots.back().probeNs += probe.ns();
    }

  private:
    void apply(unsigned slot)
    {
        if (cpus.size() <= span)
            return;
        cpu_set_t set;
        CPU_ZERO(&set);
        for (unsigned i = 0; i < span; ++i)
            CPU_SET(cpus[(slot + i) % cpus.size()], &set);
        sched_setaffinity(0, sizeof set, &set);
    }

    cpu_set_t original;
    std::vector<int> cpus;
    unsigned span;
    std::uint64_t slotEnd = 0;
    HostProbe probe;
};

/** Build a front end, booking the construction time as a set-up. */
template <class T, class... Args>
std::unique_ptr<T>
timedMake(E2EResult &r, Args &&...args)
{
    const std::uint64_t t0 = nowNs();
    auto made = std::make_unique<T>(std::forward<Args>(args)...);
    r.addSetup(nowNs() - t0);
    return made;
}

/** Chars one single-pattern response served correctly; 0 if it failed. */
std::size_t
checked(E2EResult &r, const MatchRequest &req, const MatchResponse &resp,
        core::ReferenceMatcher &oracle)
{
    if (!resp.ok())
        return 0;
    if (resp.result != oracle.match(req.text, req.pattern)) {
        ++r.mismatched;
        return 0;
    }
    return req.text.size();
}

E2EResult
runLongScan(const Sizes &sz, std::uint64_t seed, double seconds,
            Tracer *tr)
{
    E2EResult r;
    const service::ShardedConfig cfg = longScanShardedConfig(sz);
    core::ReferenceMatcher oracle;
    CpuRotor rotor(cfg.threads);
    const std::uint64_t stop = deadline(seconds);
    for (std::uint64_t job = 0; job == 0 || (nowNs() < stop && !r.full());
         ++job) {
        rotor.tick(r);
        std::vector<MatchRequest> reqs;
        for (std::size_t i = 0; i < sz.longJob; ++i)
            reqs.push_back(longScanRequest(sz, seed, job * sz.longJob + i));

        // A cold job: a fresh front end, so exemplar reservoirs and
        // kernel arenas start empty for every group of requests.
        auto svc = timedMake<service::ShardedMatchService>(r, cfg, simdLadder);
        for (const MatchRequest &req : reqs) {
            MatchResponse resp;
            const std::uint64_t t = nowNs();
            {
                Scope root(tr, "bench.request", -1, req.id);
                Scope call(tr, "service.ShardedMatchService.serve",
                           root.spanId(), req.id);
                resp = svc->serve(req);
            }
            const std::uint64_t dt = nowNs() - t;
            r.addCall(dt, checked(r, req, resp, oracle), resp.beats);
        }
    }
    rotor.finish(r);
    return r;
}

E2EResult
runShortBatch(const Sizes &sz, std::uint64_t seed, double seconds,
              Tracer *tr)
{
    E2EResult r;
    CpuRotor rotor(1);
    const std::vector<Text> pool = batchPatternPool(sz, seed);
    const service::BatchServiceConfig cfg = shortBatchConfig(sz);
    rotor.tick(r);
    auto svc = timedMake<service::BatchMatchService>(r, cfg);

    core::ReferenceMatcher oracle;
    const std::uint64_t stop = deadline(seconds);
    for (std::uint64_t c = 0; c == 0 || (nowNs() < stop && !r.full()); ++c) {
        rotor.tick(r);
        const std::vector<MatchRequest> batch =
            shortBatchCall(sz, seed, c, pool);
        std::vector<MatchResponse> out;
        const std::uint64_t t = nowNs();
        {
            Scope root(tr, "bench.request", -1, c);
            Scope call(tr, "service.BatchMatchService.serveBatch",
                       root.spanId(), c);
            out = svc->serveBatch(batch);
        }
        const std::uint64_t dt = nowNs() - t;

        std::size_t chars = 0;
        std::uint64_t beats = 0;
        bool ok = out.size() == batch.size();
        for (std::size_t i = 0; ok && i < batch.size(); ++i) {
            const std::size_t n = checked(r, batch[i], out[i], oracle);
            ok = n != 0;
            chars += n;
            beats += out[i].beats;
        }
        r.addCall(dt, ok ? chars : 0, beats);
        if (c % setupEvery == setupEvery - 1)
            timedMake<service::BatchMatchService>(r, cfg);
    }
    rotor.finish(r);
    return r;
}

E2EResult
runDictStream(const Sizes &sz, std::uint64_t seed, double seconds,
              Tracer *tr)
{
    E2EResult r;
    CpuRotor rotor(1);
    const multipattern::DictPatterns dict = dictionary(sz, seed);
    const service::DictServiceConfig cfg = dictStreamConfig(sz);
    // Set-up here is building the front end and binding the dictionary.
    auto open = [&](service::DictSession &into) {
        const std::uint64_t t0 = nowNs();
        auto made = std::make_unique<service::DictMatchService>(cfg);
        service::DictError err;
        into = made->openSession(dict, err);
        r.addSetup(nowNs() - t0);
        if (!err.ok())
            throw std::runtime_error("dictionary rejected: " +
                                     err.toString());
        return made;
    };
    service::DictSession session;
    rotor.tick(r);
    const auto svc = open(session);

    multipattern::NaiveDictMatcher oracle;
    const std::size_t history = multipattern::longestPattern(dict) - 1;
    Text tail;
    const std::uint64_t stop = deadline(seconds);
    for (std::uint64_t c = 0; c == 0 || (nowNs() < stop && !r.full()); ++c) {
        rotor.tick(r);
        const Text chunk = dictChunk(sz, seed, c, dict);
        service::DictMatchService::ChunkResult res;
        const std::uint64_t t = nowNs();
        {
            Scope root(tr, "bench.request", -1, c);
            Scope call(tr, "service.DictMatchService.feedChunk",
                       root.spanId(), c);
            res = svc->feedChunk(session, chunk);
        }
        const std::uint64_t dt = nowNs() - t;

        // The oracle sees the carried history plus the chunk, exactly
        // the window the stream semantics promise.
        Text window = tail;
        window.insert(window.end(), chunk.begin(), chunk.end());
        const std::size_t skip = tail.size();
        tail.assign(window.end() - static_cast<std::ptrdiff_t>(
                                       std::min(history, window.size())),
                    window.end());
        bool ok = res.ok() && res.hits.bits.size() == dict.size();
        if (ok) {
            const multipattern::DictHits expect =
                oracle.matchAll(window, dict);
            for (std::size_t p = 0; ok && p < dict.size(); ++p)
                ok = res.hits.bits[p].size() == chunk.size() &&
                     std::equal(res.hits.bits[p].begin(),
                                res.hits.bits[p].end(),
                                expect.bits[p].begin() +
                                    static_cast<std::ptrdiff_t>(skip));
            r.mismatched += ok ? 0 : 1;
        }
        r.addCall(dt, ok ? chunk.size() : 0, 0);
        if (c % setupEvery == setupEvery - 1) {
            service::DictSession spare;
            open(spare);
        }
    }
    rotor.finish(r);
    // Dictionary chunks carry no beat field; the service charges one
    // beat per character it moves over the host bus.
    r.beats = svc->config().base.bus.charsTransferred();
    return r;
}

E2EResult
runPaperChip(const Sizes &sz, std::uint64_t seed, double seconds,
             Tracer *tr)
{
    E2EResult r;
    CpuRotor rotor(1);
    const service::ServiceConfig cfg = paperChipConfig(sz);
    rotor.tick(r);
    auto svc = timedMake<service::MatchService>(r, cfg);

    core::ReferenceMatcher oracle;
    const std::uint64_t stop = deadline(seconds);
    for (std::uint64_t i = 0; i == 0 || (nowNs() < stop && !r.full()); ++i) {
        rotor.tick(r);
        const MatchRequest req = chipRequest(sz, seed, i);
        MatchResponse resp;
        const std::uint64_t t = nowNs();
        {
            Scope root(tr, "bench.request", -1, req.id);
            Scope call(tr, "service.MatchService.serve", root.spanId(),
                       req.id);
            resp = svc->serve(req);
        }
        const std::uint64_t dt = nowNs() - t;
        r.addCall(dt, checked(r, req, resp, oracle), resp.beats);
        if (i % setupEvery == setupEvery - 1)
            timedMake<service::MatchService>(r, cfg);
        // The host drains the replay journal now and then, as a
        // long-lived service must; untimed.
        if ((i + 1) % sz.chipJournalDrain == 0)
            svc->journal().clear();
    }
    rotor.finish(r);
    return r;
}

} // namespace

Sizes
Sizes::tiny()
{
    Sizes sz;
    sz.longText = 2048;
    sz.longChunk = 512;
    sz.batchRequests = 64;
    sz.dictMembers = 16;
    sz.dictChunk = 512;
    sz.chipText = 96;
    sz.chipJournalDrain = 16;
    return sz;
}

MatchRequest
longScanRequest(const Sizes &sz, std::uint64_t seed, std::uint64_t index)
{
    WorkloadGen gen(streamSeed(seed, LongScan, index), sz.alphabetBits);
    MatchRequest req;
    req.id = index;
    req.pattern = gen.randomPattern(sz.patternLen, sz.wildcardProb);
    req.text = gen.textWithPlants(sz.longText, req.pattern, 64);
    return req;
}

std::vector<Text>
batchPatternPool(const Sizes &sz, std::uint64_t seed)
{
    WorkloadGen gen(streamSeed(seed, BatchPool, 0), sz.alphabetBits);
    std::vector<Text> pool;
    while (pool.size() < sz.batchPool) {
        Text p = gen.randomPattern(sz.patternLen, sz.wildcardProb);
        if (std::find(pool.begin(), pool.end(), p) == pool.end())
            pool.push_back(std::move(p));
    }
    return pool;
}

std::vector<MatchRequest>
shortBatchCall(const Sizes &sz, std::uint64_t seed, std::uint64_t call,
               const std::vector<Text> &pool)
{
    WorkloadGen gen(streamSeed(seed, BatchCall, call), sz.alphabetBits);
    std::vector<MatchRequest> batch(sz.batchRequests);
    for (std::size_t i = 0; i < batch.size(); ++i) {
        const std::size_t len =
            sz.batchMinLen +
            gen.rng().nextBelow(sz.batchMaxLen - sz.batchMinLen + 1);
        batch[i].id = call * sz.batchRequests + i;
        batch[i].pattern = pool[gen.rng().nextBelow(pool.size())];
        batch[i].text = gen.textWithPlants(len, batch[i].pattern, 24);
    }
    return batch;
}

multipattern::DictPatterns
dictionary(const Sizes &sz, std::uint64_t seed)
{
    // E19's rule-set shape: distinct stems over 8 shared 4-char
    // suffixes, literal members.
    constexpr std::size_t shared = 4;
    const Symbol sigma = static_cast<Symbol>(1u << sz.alphabetBits);
    Rng rng(streamSeed(seed, DictMembers, 0));
    std::vector<Text> suffixes(8, Text(shared));
    for (Text &s : suffixes)
        for (Symbol &c : s)
            c = static_cast<Symbol>(rng.nextBelow(sigma));
    multipattern::DictPatterns dict(sz.dictMembers, Text(sz.patternLen));
    for (std::size_t i = 0; i < dict.size(); ++i) {
        for (std::size_t j = 0; j < sz.patternLen - shared; ++j)
            dict[i][j] = static_cast<Symbol>(rng.nextBelow(sigma));
        std::copy(suffixes[i % suffixes.size()].begin(),
                  suffixes[i % suffixes.size()].end(),
                  dict[i].end() - static_cast<std::ptrdiff_t>(shared));
    }
    return dict;
}

Text
dictChunk(const Sizes &sz, std::uint64_t seed, std::uint64_t index,
          const multipattern::DictPatterns &dict)
{
    const Symbol sigma = static_cast<Symbol>(1u << sz.alphabetBits);
    Rng rng(streamSeed(seed, DictChunks, index));
    Text chunk(sz.dictChunk);
    for (Symbol &c : chunk)
        c = static_cast<Symbol>(rng.nextBelow(sigma));
    for (std::size_t at = rng.nextBelow(32); at + sz.patternLen <= chunk.size();
         at += 24 + rng.nextBelow(48)) {
        const Text &m = dict[rng.nextBelow(dict.size())];
        std::copy(m.begin(), m.end(),
                  chunk.begin() + static_cast<std::ptrdiff_t>(at));
    }
    return chunk;
}

MatchRequest
chipRequest(const Sizes &sz, std::uint64_t seed, std::uint64_t index)
{
    WorkloadGen gen(streamSeed(seed, PaperChip, index), sz.alphabetBits);
    MatchRequest req;
    req.id = index;
    req.pattern = gen.randomPattern(sz.patternLen, sz.wildcardProb);
    req.text = gen.textWithPlants(sz.chipText, req.pattern, 64);
    return req;
}

std::vector<Text>
serviceWindows(const Text &text, std::size_t chunk, std::size_t pattern_len)
{
    std::vector<Text> windows;
    for (std::size_t off = 0; off < text.size(); off += chunk) {
        const std::size_t start = off - std::min(pattern_len - 1, off);
        const std::size_t end = std::min(text.size(), off + chunk);
        windows.emplace_back(text.begin() + static_cast<std::ptrdiff_t>(start),
                             text.begin() + static_cast<std::ptrdiff_t>(end));
    }
    return windows;
}

service::ServiceConfig
longScanServiceConfig(const Sizes &sz)
{
    service::ServiceConfig cfg;
    cfg.alphabetBits = sz.alphabetBits;
    cfg.maxTextLen = std::max(cfg.maxTextLen, sz.longText);
    cfg.chunkChars = sz.longChunk;
    cfg.crossCheck = false;
    cfg.journalEnabled = false;
    return cfg;
}

service::ShardedConfig
longScanShardedConfig(const Sizes &sz)
{
    service::ShardedConfig cfg;
    cfg.base = longScanServiceConfig(sz);
    cfg.threads = sz.longThreads;
    return cfg;
}

std::vector<std::unique_ptr<service::ServiceBackend>>
simdLadder(const service::ServiceConfig &)
{
    std::vector<std::unique_ptr<service::ServiceBackend>> ladder;
    ladder.push_back(std::make_unique<service::MatcherBackend>(
        std::make_unique<core::SimdParallelMatcher>()));
    return ladder;
}

service::BatchServiceConfig
shortBatchConfig(const Sizes &sz)
{
    service::BatchServiceConfig cfg;
    cfg.base.alphabetBits = sz.alphabetBits;
    cfg.base.maxTextLen = std::max(cfg.base.maxTextLen, sz.batchMaxLen);
    return cfg;
}

service::DictServiceConfig
dictStreamConfig(const Sizes &sz)
{
    service::DictServiceConfig cfg;
    cfg.base.alphabetBits = sz.alphabetBits;
    // One session streams for the whole run.
    cfg.base.maxTextLen = std::numeric_limits<std::size_t>::max() / 2;
    return cfg;
}

service::ServiceConfig
paperChipConfig(const Sizes &sz)
{
    service::ServiceConfig cfg;
    cfg.alphabetBits = sz.alphabetBits;
    return cfg;
}

E2EResult
runWorkload(const std::string &name, const Sizes &sz, std::uint64_t seed,
            double seconds, Tracer *tracer)
{
    if (name == "long_scan")
        return runLongScan(sz, seed, seconds, tracer);
    if (name == "short_batch")
        return runShortBatch(sz, seed, seconds, tracer);
    if (name == "dict_stream")
        return runDictStream(sz, seed, seconds, tracer);
    if (name == "paper_chip")
        return runPaperChip(sz, seed, seconds, tracer);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

} // namespace perfbench
