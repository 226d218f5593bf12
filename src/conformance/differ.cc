#include "conformance/differ.hh"

#include <bit>
#include <exception>

#include "util/logging.hh"

namespace spm::conformance
{

namespace
{

/** Diff one oracle's answer against the reference answer. */
std::optional<Disagreement>
diffAgainst(const BitVec &expect, const Oracle &oracle, const Case &c)
{
    BitVec got;
    try {
        got = oracle.matcher->match(c.text, c.pattern);
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
    const std::vector<std::uint64_t> &w = diff.words();
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
    result.oraclesRun = 1;
    for (std::size_t i = 1; i < oracles.size(); ++i) {
        if (!oracles[i].eligible(c, index)) {
            ++result.oraclesSkipped;
            continue;
        }
        ++result.oraclesRun;
        if (auto d = diffAgainst(expect, oracles[i], c))
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
    return diffAgainst(expect, oracles[oracle_pos], c).has_value();
}

} // namespace spm::conformance
