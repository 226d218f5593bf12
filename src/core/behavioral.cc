#include "core/behavioral.hh"

#include "util/logging.hh"

namespace spm::core
{

ChipFeedPlan::ChipFeedPlan(std::size_t num_cells,
                           std::span<const Symbol> pattern,
                           std::size_t text_len)
    : cells(num_cells), pat(pattern.begin(), pattern.end()), textLen(text_len)
{
    spm_assert(!pat.empty(), "empty pattern");
    spm_assert(pat.size() <= cells,
               "pattern of length ", pat.size(),
               " exceeds the chip's ", cells,
               " character cells (Section 3.4: cascade chips or use "
               "the multipass driver)");

    // Pattern characters are fed on even beats; for the two streams
    // to meet inside cells rather than pass between them, the text
    // phase must make (beat difference + cells - 1) even.
    phi = (cells - 1) % 2;

    // The last text character is fed before beat 2(n-1)+phi and its
    // result exits the array phi + cells beats after its own feed
    // beat; add a small margin.
    total = 2 * static_cast<Beat>(textLen) + phi +
            static_cast<Beat>(cells) + 4;
}

PatToken
ChipFeedPlan::patternAt(Beat beat) const
{
    if (beat % 2 != 0)
        return PatToken{}; // gaps between characters
    const std::size_t idx =
        static_cast<std::size_t>(beat / 2) % pat.size();
    const Symbol s = pat[idx];
    // Wild cards are encoded as an ordinary stored character; the x
    // control bit (not the comparator) makes them match anything.
    return PatToken{s == wildcardSymbol ? Symbol(0) : s, true};
}

CtlToken
ChipFeedPlan::controlAt(Beat beat) const
{
    // Control bits trail the pattern by one beat: the comparator's
    // result for p_j reaches the accumulator one beat after p_j
    // itself was latched.
    if (beat % 2 != 1)
        return CtlToken{};
    const std::size_t idx =
        static_cast<std::size_t>((beat - 1) / 2) % pat.size();
    CtlToken tok;
    tok.lambda = idx == pat.size() - 1;
    tok.x = pat[idx] == wildcardSymbol;
    tok.valid = true;
    return tok;
}

std::size_t
ChipFeedPlan::stringIndex(Beat beat) const
{
    if (beat % 2 != phi % 2 || beat < phi)
        return noChar;
    const auto i = static_cast<std::size_t>((beat - phi) / 2);
    return i < textLen ? i : noChar;
}

StrToken
ChipFeedPlan::stringAt(Beat beat, std::span<const Symbol> text) const
{
    const std::size_t i = stringIndex(beat);
    return i == noChar ? StrToken{} : StrToken{text[i], true};
}

ResToken
ChipFeedPlan::resultAt(Beat beat) const
{
    // Empty result slots enter one beat after their text character,
    // riding through the accumulator row beside it.
    const unsigned r_phase = (phi + 1) % 2;
    if (beat % 2 != r_phase || beat < phi + 1)
        return ResToken{};
    const auto i = static_cast<std::size_t>((beat - phi - 1) / 2);
    if (i >= textLen)
        return ResToken{};
    return ResToken{false, true};
}

BehavioralChip::BehavioralChip(std::size_t num_cells,
                               Picoseconds beat_period_ps,
                               CellVariant variant)
    : numCells(num_cells), eng(beat_period_ps)
{
    spm_assert(num_cells > 0, "chip needs at least one cell");

    comparators.reserve(numCells);
    accumulators.reserve(numCells);
    for (std::size_t c = 0; c < numCells; ++c) {
        const auto par = static_cast<unsigned>(c % 2);
        const std::string cell_name = "cmp" + std::to_string(c);
        comparators.push_back(
            variant == CellVariant::SelfChecking
                ? &eng.makeCell<SelfCheckingComparatorCell>(cell_name,
                                                            par)
                : &eng.makeCell<CharComparatorCell>(cell_name, par));
    }
    for (std::size_t c = 0; c < numCells; ++c) {
        accumulators.push_back(&eng.makeCell<AccumulatorCell>(
            "acc" + std::to_string(c),
            static_cast<unsigned>((c + 1) % 2)));
    }

    for (std::size_t c = 0; c < numCells; ++c) {
        const systolic::Latch<PatToken> *p_src =
            c == 0 ? &pIn : &comparators[c - 1]->pOut();
        const systolic::Latch<StrToken> *s_src =
            c == numCells - 1 ? &sIn : &comparators[c + 1]->sOut();
        comparators[c]->connect(p_src, s_src);

        const systolic::Latch<CtlToken> *ctl_src =
            c == 0 ? &ctlIn : &accumulators[c - 1]->ctlOut();
        const systolic::Latch<ResToken> *r_src =
            c == numCells - 1 ? &rIn : &accumulators[c + 1]->rOut();
        accumulators[c]->connect(ctl_src, r_src,
                                 &comparators[c]->dOut());
    }
}

std::uint64_t
BehavioralChip::selfCheckMismatches() const
{
    std::uint64_t total = 0;
    for (const CharComparatorCell *c : comparators)
        total += c->selfCheckMismatches();
    return total;
}

std::size_t
BehavioralChip::cellIndex(std::size_t c, bool comparator) const
{
    spm_assert(c < numCells, "cell index out of range");
    // Comparators are inserted into the engine first, accumulators
    // after them, one of each per character cell.
    return comparator ? c : numCells + c;
}

PatToken
BehavioralChip::patternOut() const
{
    return comparators.back()->pOut().read();
}

CtlToken
BehavioralChip::controlOut() const
{
    return accumulators.back()->ctlOut().read();
}

StrToken
BehavioralChip::stringOut() const
{
    return comparators.front()->sOut().read();
}

ResToken
BehavioralChip::resultOut() const
{
    return accumulators.front()->rOut().read();
}

std::pair<BitVec, Beat>
runMatchProtocol(const ChipHooks &hooks, std::size_t total_cells,
                 std::span<const Symbol> text,
                 std::span<const Symbol> pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    BitVec result(n);
    if (len == 0 || n == 0 || len > n)
        return {result, 0};

    const ChipFeedPlan plan(total_cells, pattern, n);
    std::size_t collected = 0;
    Beat beat = 0;
    for (; beat < plan.totalBeats() && collected < n; ++beat) {
        hooks.feedInputs(plan.patternAt(beat), plan.controlAt(beat),
                         plan.stringAt(beat, text), plan.resultAt(beat));
        hooks.step();
        const ResToken out = hooks.resultOut();
        if (out.valid) {
            spm_assert(collected < n, "more results than text characters");
            // Results for incomplete substrings (i < k) are noise
            // from partially filled cells; the problem defines them
            // as 0 (Section 3.1).
            result.set(collected, collected >= len - 1 && out.value);
            ++collected;
        }
    }
    spm_assert(collected == n, "collected ", collected, " of ", n,
               " results after ", beat, " beats");
    return {result, beat};
}

BitVec
BehavioralMatcher::match(std::span<const Symbol> text,
                         std::span<const Symbol> pattern)
{
    const std::size_t m = cells == 0 ? pattern.size() : cells;
    if (pattern.empty() || text.empty() || pattern.size() > text.size()) {
        beatsUsed = 0;
        return BitVec(text.size());
    }

    BehavioralChip chip(m);
    ChipHooks hooks;
    hooks.feedInputs = [&chip](const PatToken &p, const CtlToken &c,
                               const StrToken &s, const ResToken &r) {
        chip.feedPattern(p);
        chip.feedControl(c);
        chip.feedString(s);
        chip.feedResult(r);
    };
    hooks.step = [&chip] { chip.step(); };
    hooks.resultOut = [&chip] { return chip.resultOut(); };

    auto [result, beats] = runMatchProtocol(hooks, m, text, pattern);
    beatsUsed = beats;
    return result;
}

} // namespace spm::core
