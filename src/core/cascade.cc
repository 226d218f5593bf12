#include "core/cascade.hh"

#include "util/logging.hh"

namespace spm::core
{

ChipCascade::ChipCascade(std::size_t num_chips, std::size_t cells_per_chip,
                         Picoseconds beat_period_ps)
    : cellsEach(cells_per_chip)
{
    spm_assert(num_chips > 0 && cells_per_chip > 0,
               "cascade needs at least one chip with one cell");
    chips.reserve(num_chips);
    for (std::size_t i = 0; i < num_chips; ++i) {
        chips.push_back(
            std::make_unique<BehavioralChip>(cells_per_chip,
                                             beat_period_ps));
    }
}

void
ChipCascade::feedPattern(const PatToken &tok)
{
    chips.front()->feedPattern(tok);
}

void
ChipCascade::feedControl(const CtlToken &tok)
{
    chips.front()->feedControl(tok);
}

void
ChipCascade::feedString(const StrToken &tok)
{
    chips.back()->feedString(tok);
}

void
ChipCascade::feedResult(const ResToken &tok)
{
    chips.back()->feedResult(tok);
}

ResToken
ChipCascade::resultOut() const
{
    return chips.front()->resultOut();
}

void
ChipCascade::step()
{
    // Board-level wiring: every chip's committed outputs feed its
    // neighbor's input pins. Reading all outputs before stepping any
    // chip preserves the simultaneous movement of the single long
    // array -- a cascade is beat-for-beat identical to a monolithic
    // chip with the same total cell count.
    for (std::size_t i = 0; i + 1 < chips.size(); ++i) {
        // Pattern and control flow left to right.
        chips[i + 1]->feedPattern(chips[i]->patternOut());
        chips[i + 1]->feedControl(chips[i]->controlOut());
        // String and results flow right to left.
        chips[i]->feedString(chips[i + 1]->stringOut());
        chips[i]->feedResult(chips[i + 1]->resultOut());
    }
    for (auto &c : chips)
        c->step();
}

BehavioralChip &
ChipCascade::chip(std::size_t idx)
{
    spm_assert(idx < chips.size(), "chip index out of range");
    return *chips[idx];
}

unsigned
ChipCascade::pinsPerChip(BitWidth char_bits)
{
    // Pattern in + out and string in + out are char_bits wide each;
    // lambda, x in + out; result in + out; two clock phases; Vdd and
    // GND.
    return 4 * char_bits + 4 + 2 + 2 + 2;
}

BitVec
CascadeMatcher::match(std::span<const Symbol> text,
                      std::span<const Symbol> pattern)
{
    if (pattern.empty() || text.empty() || pattern.size() > text.size()) {
        beatsUsed = 0;
        return BitVec(text.size());
    }

    ChipCascade cascade(numChips, cellsPerChip);
    ChipHooks hooks;
    hooks.feedInputs = [&cascade](const PatToken &p, const CtlToken &c,
                                  const StrToken &s, const ResToken &r) {
        cascade.feedPattern(p);
        cascade.feedControl(c);
        cascade.feedString(s);
        cascade.feedResult(r);
    };
    hooks.step = [&cascade] { cascade.step(); };
    hooks.resultOut = [&cascade] { return cascade.resultOut(); };

    auto [result, beats] =
        runMatchProtocol(hooks, cascade.totalCells(), text, pattern);
    beatsUsed = beats;
    return result;
}

} // namespace spm::core
