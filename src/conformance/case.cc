#include "conformance/case.hh"

#include <cstdio>
#include <cstdlib>

#include "telemetry/event.hh"
#include "util/rng.hh"
#include "util/strings.hh"

namespace spm::conformance
{

namespace
{

/** Overwrite text[at..at+k) with the pattern, filling wild cards. */
void
plantAt(std::vector<Symbol> &text, const std::vector<Symbol> &pattern,
        std::size_t at, WorkloadGen &gen)
{
    if (pattern.empty() || at + pattern.size() > text.size())
        return;
    for (std::size_t j = 0; j < pattern.size(); ++j) {
        text[at + j] = pattern[j] == wildcardSymbol ? gen.randomSymbol()
                                                    : pattern[j];
    }
}

std::string
hexU64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

std::optional<std::vector<Symbol>>
decodeStream(const std::string &field)
{
    std::vector<Symbol> syms;
    if (field == "-")
        return syms;
    std::size_t pos = 0;
    while (pos <= field.size()) {
        const std::size_t dot = field.find('.', pos);
        const std::string tok =
            field.substr(pos, dot == std::string::npos ? dot : dot - pos);
        if (tok.empty())
            return std::nullopt;
        if (tok == "*") {
            syms.push_back(wildcardSymbol);
        } else {
            char *end = nullptr;
            const unsigned long v = std::strtoul(tok.c_str(), &end, 16);
            if (end == nullptr || *end != '\0' || v >= wildcardSymbol)
                return std::nullopt;
            syms.push_back(static_cast<Symbol>(v));
        }
        if (dot == std::string::npos)
            break;
        pos = dot + 1;
    }
    return syms;
}

/** Split on ':'; returns empty vector when any field is empty. */
std::vector<std::string>
splitFields(const std::string &id)
{
    std::vector<std::string> out;
    std::size_t pos = 0;
    while (pos <= id.size()) {
        const std::size_t colon = id.find(':', pos);
        const std::string f = id.substr(
            pos, colon == std::string::npos ? colon : colon - pos);
        if (f.empty())
            return {};
        out.push_back(f);
        if (colon == std::string::npos)
            break;
        pos = colon + 1;
    }
    return out;
}

std::optional<std::uint64_t>
parseHex(const std::string &s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 16);
    if (end == nullptr || *end != '\0')
        return std::nullopt;
    return v;
}

std::optional<std::uint64_t>
parseDec(const std::string &s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return std::nullopt;
    return v;
}

} // namespace

Case
materializeSpec(const CaseSpec &spec)
{
    Case c;
    c.bits = spec.bits == 0 ? 1 : spec.bits;
    WorkloadGen gen(spec.seed, c.bits);

    // Pattern: periodic when self-overlap is requested, uniform
    // otherwise; wild cards sprinkled at the requested density.
    const std::size_t k = spec.patternLen;
    c.pattern.reserve(k);
    if ((spec.flags & FlagSelfOverlap) != 0 && k > 0) {
        const std::size_t period = 1 + gen.rng().nextBelow(3);
        std::vector<Symbol> unit(period);
        for (Symbol &s : unit)
            s = gen.randomSymbol();
        for (std::size_t j = 0; j < k; ++j)
            c.pattern.push_back(unit[j % period]);
    } else {
        for (std::size_t j = 0; j < k; ++j)
            c.pattern.push_back(gen.randomSymbol());
    }
    for (Symbol &s : c.pattern)
        if (gen.rng().nextBool(spec.wildcardPct / 100.0))
            s = wildcardSymbol;

    c.text = gen.randomText(spec.textLen);
    const std::size_t n = c.text.size();
    if (k > 0 && k <= n) {
        // Background plants so matches exist even in big texts.
        for (std::size_t at = gen.rng().nextBelow(k + 3); at + k <= n;
             at += k + 1 + gen.rng().nextBelow(2 * k + 5))
            plantAt(c.text, c.pattern, at, gen);
        if ((spec.flags & FlagShardStraddle) != 0) {
            // Plant matches whose windows straddle the cut points the
            // sharded service would use, with ends just before, on,
            // and just after each boundary -- including a match whose
            // last character is the final overlap character.
            for (const std::size_t nshards : {std::size_t(2),
                                              std::size_t(4)}) {
                for (std::size_t s = 1; s < nshards; ++s) {
                    const std::size_t boundary = n * s / nshards;
                    for (const std::size_t end :
                         {boundary > 0 ? boundary - 1 : 0, boundary,
                          boundary + k - 2, boundary + 1}) {
                        if (end + 1 >= k && end < n)
                            plantAt(c.text, c.pattern, end + 1 - k, gen);
                    }
                }
            }
        }
        if ((spec.flags & FlagLeadingMatch) != 0)
            plantAt(c.text, c.pattern, 0, gen);
        if ((spec.flags & FlagTrailingMatch) != 0)
            plantAt(c.text, c.pattern, n - k, gen);
        if ((spec.flags & FlagDictOverlap) != 0 && k >= 2) {
            // Fragments of the pattern, planted whole: a dictionary
            // member derived as a prefix or suffix of the pattern
            // hits here even though the full pattern does not, so
            // multi-pattern hit sets overlap instead of nesting.
            const std::size_t frag = 1 + gen.rng().nextBelow(k - 1);
            std::vector<Symbol> prefix(c.pattern.begin(),
                                       c.pattern.begin() +
                                           static_cast<std::ptrdiff_t>(frag));
            std::vector<Symbol> suffix(c.pattern.end() -
                                           static_cast<std::ptrdiff_t>(frag),
                                       c.pattern.end());
            plantAt(c.text, prefix, gen.rng().nextBelow(n - frag + 1), gen);
            plantAt(c.text, suffix, gen.rng().nextBelow(n - frag + 1), gen);
        }
    }
    return c;
}

std::string
encodeSpec(const CaseSpec &spec)
{
    return "g1:" + hexU64(spec.seed) + ":" + std::to_string(spec.bits) +
           ":" + std::to_string(spec.patternLen) + ":" +
           std::to_string(spec.textLen) + ":" +
           std::to_string(spec.wildcardPct) + ":" + hexU64(spec.flags);
}

std::string
encodeLiteral(const Case &c)
{
    return telem::literalCaseId(c.bits, c.pattern, c.text);
}

std::optional<CaseSpec>
decodeSpec(const std::string &id)
{
    const std::vector<std::string> f = splitFields(id);
    if (f.size() != 7 || f[0] != "g1")
        return std::nullopt;
    const auto seed = parseHex(f[1]);
    const auto bits = parseDec(f[2]);
    const auto k = parseDec(f[3]);
    const auto n = parseDec(f[4]);
    const auto wc = parseDec(f[5]);
    const auto flags = parseHex(f[6]);
    if (!seed || !bits || !k || !n || !wc || !flags || *bits < 1 ||
        *bits > 16 || *wc > 100)
        return std::nullopt;
    CaseSpec spec;
    spec.seed = *seed;
    spec.bits = static_cast<BitWidth>(*bits);
    spec.patternLen = static_cast<std::size_t>(*k);
    spec.textLen = static_cast<std::size_t>(*n);
    spec.wildcardPct = static_cast<unsigned>(*wc);
    spec.flags = static_cast<unsigned>(*flags);
    return spec;
}

std::optional<Case>
decodeCase(const std::string &id)
{
    if (const auto spec = decodeSpec(id))
        return materializeSpec(*spec);
    const std::vector<std::string> f = splitFields(id);
    if (f.size() != 4 || f[0] != "l1")
        return std::nullopt;
    const auto bits = parseDec(f[1]);
    if (!bits || *bits < 1 || *bits > 16)
        return std::nullopt;
    const auto pattern = decodeStream(f[2]);
    const auto text = decodeStream(f[3]);
    if (!pattern || !text)
        return std::nullopt;
    Case c;
    c.bits = static_cast<BitWidth>(*bits);
    c.pattern = *pattern;
    c.text = *text;
    return c;
}

} // namespace spm::conformance
