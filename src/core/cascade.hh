/**
 * @file
 * Multi-chip cascades (Section 3.4, Figure 3-7).
 *
 * "In order to make the chip extensible, more inputs and outputs must
 * be provided... Several pattern matching chips can then be cascaded
 * ... The inputs to each chip are taken from the outputs of its
 * neighbors, so that the cells on all of the chips form a single
 * linear array. The pattern is fed to the inputs of the leftmost chip,
 * and the text string is input to the rightmost chip. The result
 * output is taken from the leftmost chip. A cascade of k chips with n
 * cells each can match patterns of up to kn characters."
 *
 * ChipCascade wires independent BehavioralChip instances together pin
 * to pin, transferring each chip's committed edge outputs into its
 * neighbor's input latches every beat -- exactly the board-level
 * wiring of Figure 3-7.
 */

#ifndef SPM_CORE_CASCADE_HH
#define SPM_CORE_CASCADE_HH

#include <memory>
#include <vector>

#include "core/behavioral.hh"
#include "core/matcher.hh"

namespace spm::core
{

/** A row of cascaded chips acting as one long array. */
class ChipCascade
{
  public:
    /**
     * @param num_chips chips in the cascade (left to right)
     * @param cells_per_chip character cells on each chip
     */
    ChipCascade(std::size_t num_chips, std::size_t cells_per_chip,
                Picoseconds beat_period_ps = prototypeBeatPs);

    std::size_t cellsPerChip() const { return cellsEach; }
    std::size_t totalCells() const { return chips.size() * cellsEach; }

    /** @{ Host pins (Figure 3-7 board edges). */
    void feedPattern(const PatToken &tok);   ///< leftmost chip
    void feedControl(const CtlToken &tok);   ///< leftmost chip
    void feedString(const StrToken &tok);    ///< rightmost chip
    void feedResult(const ResToken &tok);    ///< rightmost chip
    ResToken resultOut() const;              ///< leftmost chip
    /** @} */

    /**
     * Advance one beat: propagate committed boundary outputs into
     * neighbor inputs, then step every chip.
     */
    void step();

    /** Access an individual chip (for stats). */
    BehavioralChip &chip(std::size_t idx);

    /**
     * Signal pins required per chip for cascading, given the
     * character width: pattern in/out, string in/out, control pair
     * in/out, result in/out, plus clock, power and ground
     * (Section 3.4's "more inputs and outputs must be provided").
     */
    static unsigned pinsPerChip(BitWidth char_bits);

  private:
    std::size_t cellsEach;
    std::vector<std::unique_ptr<BehavioralChip>> chips;
};

/** Matcher over a cascade of chips. */
class CascadeMatcher : public Matcher
{
  public:
    CascadeMatcher(std::size_t num_chips, std::size_t cells_per_chip)
        : numChips(num_chips), cellsPerChip(cells_per_chip)
    {
    }

    BitVec match(const std::vector<Symbol> &text,
                 const std::vector<Symbol> &pattern) override;

    std::string name() const override { return "systolic-cascade"; }

    Beat lastBeats() const { return beatsUsed; }

  private:
    std::size_t numChips;
    std::size_t cellsPerChip;
    Beat beatsUsed = 0;
};

} // namespace spm::core

#endif // SPM_CORE_CASCADE_HH
