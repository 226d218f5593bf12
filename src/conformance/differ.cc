#include "conformance/differ.hh"

#include <bit>
#include <exception>
#include <span>

#include "util/logging.hh"

namespace spm::conformance
{

namespace
{

/**
 * @p c's text between two flanks of k+1 symbols each, a function of
 * the case alone, so a case ID replays the same buffer. A flank is the
 * pattern's literal symbols (a wild card reads as 0) cycled to end in
 * p_0 .. p_{k-2}: a matcher that takes the k-1 symbols before its span
 * as history then sees a match end at text position 0 whenever the
 * text starts with p_{k-1}.
 */
std::vector<Symbol>
flankedText(const Case &c)
{
    const std::size_t k = c.pattern.size();
    std::vector<Symbol> flank(k + 1, 0);
    for (std::size_t i = 0; k != 0 && i <= k; ++i) {
        const Symbol p = c.pattern[(i + 2 * k - 2) % k];
        flank[i] = p == wildcardSymbol ? Symbol{0} : p;
    }
    std::vector<Symbol> buf = flank;
    buf.insert(buf.end(), c.text.begin(), c.text.end());
    buf.insert(buf.end(), flank.begin(), flank.end());
    return buf;
}

/** The case text inside @p flanked (see flankedText). */
std::span<const Symbol>
caseSpan(const Case &c, const std::vector<Symbol> &flanked)
{
    return std::span(flanked).subspan(c.pattern.size() + 1, c.text.size());
}

/** Diff one oracle's answer on @p text against the reference answer. */
std::optional<Disagreement>
diffAgainst(const BitVec &expect, const Oracle &oracle,
            std::span<const Symbol> text, const Case &c)
{
    BitVec got;
    try {
        got = oracle.matcher->match(text, c.pattern);
    } catch (const std::exception &e) {
        Disagreement d;
        d.oracle = oracle.name();
        d.kind = Disagreement::Kind::Error;
        d.detail = e.what();
        return d;
    }

    if (got == expect)
        return std::nullopt;

    Disagreement d;
    d.oracle = oracle.name();
    d.kind = Disagreement::Kind::Mismatch;
    if (got.size() != expect.size()) {
        d.detail = "result length " + std::to_string(got.size()) +
                   " != " + std::to_string(expect.size());
        d.mismatches = 1;
        return d;
    }
    const BitVec diff = got ^ expect;
    d.firstIndex = diff.findFirst();
    d.mismatches = diff.popcount();
    const std::span<const std::uint64_t> w = diff.words();
    std::size_t last = w.size() - 1;
    while (w[last] == 0)
        --last;
    d.lastIndex =
        64 * last + 63 - static_cast<std::size_t>(std::countl_zero(w[last]));
    return d;
}

} // namespace

std::string
Disagreement::summary() const
{
    if (kind == Kind::Error)
        return oracle + ": error: " + detail;
    std::string s = oracle + ": " + std::to_string(mismatches) +
                    " mismatched bit(s)";
    if (!detail.empty())
        return s + " (" + detail + ")";
    s += " in [" + std::to_string(firstIndex) + ", " +
         std::to_string(lastIndex) + "]";
    return s;
}

CaseResult
runCase(const Case &c, std::vector<Oracle> &oracles, std::uint64_t index)
{
    spm_assert(!oracles.empty(), "no oracles registered");
    CaseResult result;
    const BitVec expect = oracles.front().matcher->match(c.text, c.pattern);
    const std::vector<Symbol> flanked = flankedText(c);
    result.oraclesRun = 1;
    for (std::size_t i = 1; i < oracles.size(); ++i) {
        if (!oracles[i].eligible(c, index)) {
            ++result.oraclesSkipped;
            continue;
        }
        ++result.oraclesRun;
        if (auto d = diffAgainst(expect, oracles[i], caseSpan(c, flanked), c))
            result.disagreements.push_back(std::move(*d));
    }
    return result;
}

bool
stillFails(const Case &c, std::vector<Oracle> &oracles,
           std::size_t oracle_pos)
{
    spm_assert(oracle_pos > 0 && oracle_pos < oracles.size(),
               "oracle position out of range");
    const BitVec expect = oracles.front().matcher->match(c.text, c.pattern);
    const std::vector<Symbol> flanked = flankedText(c);
    return diffAgainst(expect, oracles[oracle_pos], caseSpan(c, flanked), c)
        .has_value();
}

} // namespace spm::conformance
