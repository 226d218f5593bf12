#include "core/bitserial.hh"

#include <algorithm>

#include "util/logging.hh"
#include "util/strings.hh"

namespace spm::core
{

BitSerialChip::BitSerialChip(std::size_t num_cells, BitWidth bits_per_char,
                             Picoseconds beat_period_ps)
    : numCells(num_cells), numBits(bits_per_char), eng(beat_period_ps),
      pBitIn(bits_per_char), sBitIn(bits_per_char)
{
    spm_assert(num_cells > 0, "chip needs at least one cell");
    spm_assert(bits_per_char >= 1 && bits_per_char <= 16,
               "bits per character must be in [1,16]");

    // The constant TRUE entering the top of every d chain.
    dTop.force(DToken{true, true});

    comparators.resize(numBits);
    for (unsigned row = 0; row < numBits; ++row) {
        comparators[row].reserve(numCells);
        for (std::size_t c = 0; c < numCells; ++c) {
            comparators[row].push_back(&eng.makeCell<BitComparatorCell>(
                "b" + std::to_string(row) + "c" + std::to_string(c),
                static_cast<unsigned>((row + c) % 2)));
        }
    }
    accumulators.reserve(numCells);
    for (std::size_t c = 0; c < numCells; ++c) {
        accumulators.push_back(&eng.makeCell<AccumulatorCell>(
            "acc" + std::to_string(c),
            static_cast<unsigned>((numBits + c) % 2)));
    }

    for (unsigned row = 0; row < numBits; ++row) {
        for (std::size_t c = 0; c < numCells; ++c) {
            const systolic::Latch<BitToken> *p_src =
                c == 0 ? &pBitIn[row] : &comparators[row][c - 1]->pOut();
            const systolic::Latch<BitToken> *s_src =
                c == numCells - 1 ? &sBitIn[row]
                                  : &comparators[row][c + 1]->sOut();
            const systolic::Latch<DToken> *d_src =
                row == 0 ? &dTop : &comparators[row - 1][c]->dOut();
            comparators[row][c]->connect(p_src, s_src, d_src);
        }
    }
    for (std::size_t c = 0; c < numCells; ++c) {
        const systolic::Latch<CtlToken> *ctl_src =
            c == 0 ? &ctlIn : &accumulators[c - 1]->ctlOut();
        const systolic::Latch<ResToken> *r_src =
            c == numCells - 1 ? &rIn : &accumulators[c + 1]->rOut();
        accumulators[c]->connect(ctl_src, r_src,
                                 &comparators[numBits - 1][c]->dOut());
    }
}

void
BitSerialChip::feedPatternBit(unsigned row, const BitToken &tok)
{
    spm_assert(row < numBits, "row out of range");
    pBitIn[row].force(tok);
}

void
BitSerialChip::feedStringBit(unsigned row, const BitToken &tok)
{
    spm_assert(row < numBits, "row out of range");
    sBitIn[row].force(tok);
}

ResToken
BitSerialChip::resultOut() const
{
    return accumulators.front()->rOut().read();
}

BitVec
BitSerialMatcher::match(std::span<const Symbol> text,
                        std::span<const Symbol> pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    BitVec result(n);
    if (len == 0 || n == 0 || len > n) {
        beatsUsed = 0;
        return result;
    }

    const std::size_t m = cells == 0 ? len : cells;
    BitWidth bits = bitsPerChar;
    if (bits == 0) {
        bits = std::max(requiredBits(text), requiredBits(pattern));
    }

    BitSerialChip chip(m, bits);
    if (chipPrep)
        chipPrep(chip);
    const ChipFeedPlan plan(m, pattern, n);
    const Beat total = plan.totalBeats() + bits + 2;

    // Extract bit (bits-1-row) of a token's character: the most
    // significant bit enters the top row first (Section 3.2.1).
    auto pat_bit = [&](Beat beat, unsigned row) {
        if (beat < row)
            return BitToken{};
        const PatToken tok = plan.patternAt(beat - row);
        if (!tok.valid)
            return BitToken{};
        const unsigned bit_idx = bits - 1 - row;
        return BitToken{((tok.sym >> bit_idx) & 1) != 0, true};
    };
    auto str_bit = [&](Beat beat, unsigned row) {
        if (beat < row)
            return BitToken{};
        const StrToken tok = plan.stringAt(beat - row, text);
        if (!tok.valid)
            return BitToken{};
        const unsigned bit_idx = bits - 1 - row;
        return BitToken{((tok.sym >> bit_idx) & 1) != 0, true};
    };

    std::size_t collected = 0;
    Beat beat = 0;
    for (; beat < total && collected < n; ++beat) {
        for (unsigned row = 0; row < bits; ++row) {
            chip.feedPatternBit(row, pat_bit(beat, row));
            chip.feedStringBit(row, str_bit(beat, row));
        }
        // The control and result streams enter the accumulator row
        // bits-1 beats later than the plan's single-row schedule (the
        // d result takes `bits` beats to trickle down instead of 1).
        const Beat shift = bits - 1;
        chip.feedControl(beat >= shift ? plan.controlAt(beat - shift)
                                       : CtlToken{});
        chip.feedResult(beat >= shift ? plan.resultAt(beat - shift)
                                      : ResToken{});
        chip.step();

        const ResToken out = chip.resultOut();
        if (out.valid) {
            result.set(collected, collected >= len - 1 && out.value);
            ++collected;
        }
    }
    spm_assert(collected == n, "collected ", collected, " of ", n,
               " results after ", beat, " beats");
    beatsUsed = beat;
    return result;
}

} // namespace spm::core
