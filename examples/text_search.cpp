/**
 * @file
 * Text search: the SNOBOL / database / office-automation scenario.
 *
 * Section 3.1 motivates the chip with "SNOBOL-like languages",
 * "database query languages" and "office automation systems". This
 * example searches a document over the full byte alphabet with wild
 * card queries, comparing the systolic chip against the software the
 * host would otherwise run.
 */

#include <chrono>
#include <cstdio>
#include <string>

#include "baselines/naive.hh"
#include "core/behavioral.hh"
#include "core/hostbus.hh"
#include "util/strings.hh"

namespace
{

const char *document =
    "The design of the pattern matching chip took only about two "
    "man-months. We should see many designs for special purpose "
    "chips appearing in the near future. Special-purpose chips can "
    "be used as peripheral devices attached to a conventional host "
    "computer. The resulting system can be considered as an "
    "efficient general-purpose computer, if many types of chips are "
    "attached. By concentrating on algorithms, chips of good "
    "performance and fairly small area can be constructed with "
    "minimal design time.";

/** Compile a query with '?' wild cards into a symbol pattern. */
std::vector<spm::Symbol>
compileQuery(const std::string &query)
{
    std::vector<spm::Symbol> pattern;
    for (char c : query) {
        pattern.push_back(c == '?' ? spm::wildcardSymbol
                                   : spm::Symbol(
                                         static_cast<unsigned char>(c)));
    }
    return pattern;
}

void
showMatches(const std::string &doc, const spm::BitVec &r,
            std::size_t query_len)
{
    for (std::size_t i = 0; i < r.size(); ++i) {
        if (!r.get(i))
            continue;
        const std::size_t start = i + 1 - query_len;
        std::printf("    at %4zu: \"%s\"\n", start,
                    doc.substr(start, query_len).c_str());
    }
}

} // namespace

int
main()
{
    using namespace spm;
    const std::string doc(document);
    const auto text = bytesToSymbols(doc);

    const char *queries[] = {
        "chip",        // plain substring
        "ch?ps",       // wild card inside a word
        "c??put",      // computer / computed stems
        "design?",     // design + any following character
    };

    core::HostBusModel bus(prototypeBeatPs, 8);
    std::printf("document: %zu characters; chip rate: %.1f M "
                "chars/s (250 ns beats)\n\n",
                text.size(), bus.chipCharsPerSec() / 1e6);

    for (const char *q : queries) {
        const auto pattern = compileQuery(q);
        core::BehavioralMatcher chip(pattern.size());
        baselines::NaiveMatcher naive;

        const auto chip_r = chip.match(text, pattern);
        const auto naive_r = naive.match(text, pattern);

        const std::size_t hits = chip_r.popcount();
        std::printf("query \"%s\": %zu match(es), %llu beats "
                    "(%.1f us of chip time)%s\n",
                    q, hits,
                    static_cast<unsigned long long>(chip.lastBeats()),
                    bus.secondsForBeats(chip.lastBeats()) * 1e6,
                    chip_r == naive_r ? "" : "  ** MISMATCH **");
        showMatches(doc, chip_r, pattern.size());
    }

    std::printf("\nAt one character per beat the chip outruns a "
                "Unibus-class host\n(%s: %s) -- the Section 1 "
                "claim.\n",
                core::hostPdp11().name.c_str(),
                bus.chipOutrunsHost(core::hostPdp11())
                    ? "chip is faster than the host can feed it"
                    : "host keeps up");
    return 0;
}
