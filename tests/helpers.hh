/**
 * @file
 * Shared helpers for the test suite: deterministic workloads, the
 * paper's own running example, and a scoped global trace.
 *
 * All randomized workloads are backed by the conformance case
 * generator (src/conformance/casegen.hh), so the suite and the
 * conformance_fuzz tool draw cases from the same stratified hard
 * regions, and any workload a test logs can be replayed through
 * `conformance_fuzz --replay` via its case ID.
 */

#ifndef SPM_TESTS_HELPERS_HH
#define SPM_TESTS_HELPERS_HH

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "conformance/case.hh"
#include "conformance/casegen.hh"
#include "telemetry/metrics.hh"
#include "telemetry/span.hh"
#include "util/rng.hh"
#include "util/strings.hh"
#include "util/types.hh"

namespace spm::test
{

/** A matching workload: text, pattern, and its generator settings. */
struct Workload
{
    std::vector<Symbol> text;
    std::vector<Symbol> pattern;
    BitWidth bits;
    /** Replayable conformance case ID of this workload. */
    std::string caseId;
};

/** The master seed shared by all test workloads. */
inline constexpr std::uint64_t workloadSeed = 0xC0FFEE;

inline Workload
toWorkload(const conformance::CaseSpec &spec)
{
    const conformance::Case c = conformance::materializeSpec(spec);
    return Workload{c.text, c.pattern, c.bits,
                    conformance::encodeSpec(spec)};
}

/**
 * Deterministic workload for a sweep index: varies pattern length,
 * text length, wild card density and alphabet with the index, biased
 * toward the conformance generator's hard regions. The text is always
 * at least as long as the pattern.
 */
inline Workload
makeWorkload(std::uint64_t index, bool wildcards = true)
{
    const conformance::CaseGen gen(workloadSeed);
    conformance::CaseSpec spec = gen.specAt(index);
    if (!wildcards)
        spec.wildcardPct = 0;
    // Tests built on this helper index into the text by pattern
    // offsets, so exclude the generator's k > n degenerate shapes.
    spec.textLen = std::max(spec.textLen, spec.patternLen + 8);
    return toWorkload(spec);
}

/**
 * Workload with explicit shape knobs (alphabet, text and pattern
 * length, wild-card percentage), still materialized by the
 * conformance generator so matches get planted deterministically.
 */
inline Workload
makeShapedWorkload(std::uint64_t seed, BitWidth bits,
                   std::size_t text_len, std::size_t pattern_len,
                   unsigned wildcard_pct = 20)
{
    conformance::CaseSpec spec;
    spec.seed = seed;
    spec.bits = bits;
    spec.patternLen = pattern_len;
    spec.textLen = text_len;
    spec.wildcardPct = wildcard_pct;
    return toWorkload(spec);
}

/** The pattern of the paper's Figure 3-1 example: AXC. */
inline std::vector<Symbol>
paperPattern()
{
    return parseSymbols("AXC");
}

/** A text exercising the Figure 3-1 example's matches. */
inline std::vector<Symbol>
paperText()
{
    return parseSymbols("ABCAACCACB");
}

/**
 * The global trace buffer for one scope: cleared, with tracing and
 * sampling switched as asked; on exit tracing goes off, sampling back
 * on (the default) and the buffer is cleared again.
 */
class ScopedTrace
{
  public:
    explicit ScopedTrace(bool tracing = true, bool sampling = true)
    {
        telem::TraceBuffer::global().clear();
        telem::TraceBuffer::global().setEnabled(tracing);
        telem::setSamplingEnabled(sampling);
    }
    ~ScopedTrace()
    {
        telem::TraceBuffer::global().setEnabled(false);
        telem::TraceBuffer::global().clear();
        telem::setSamplingEnabled(true);
    }
    ScopedTrace(const ScopedTrace &) = delete;
    ScopedTrace &operator=(const ScopedTrace &) = delete;

    /** Every recorded event, oldest first. */
    static std::vector<telem::SpanEvent> events()
    {
        return telem::TraceBuffer::global().collect();
    }

    /** The recorded events named @p name, oldest first. */
    static std::vector<telem::SpanEvent> named(const std::string &name)
    {
        std::vector<telem::SpanEvent> out;
        for (const telem::SpanEvent &ev : events())
            if (name == ev.name)
                out.push_back(ev);
        return out;
    }
};

} // namespace spm::test

#endif // SPM_TESTS_HELPERS_HH
