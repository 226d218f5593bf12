/**
 * @file
 * The bit-serial pipelined chip (Section 3.2.1, Figure 3-4).
 *
 * "Rather than using one large circuit to compare whole characters, we
 * can divide each comparator into modules that can compare single
 * bits... By staggering the bits so the high order bits enter the
 * array before the low order ones, we can make a pipeline comparator.
 * Each single bit comparator shifts its result down to meet the bits
 * coming into the next lower comparator. The active and idle
 * comparators alternate vertically as well as horizontally, so that on
 * each beat the active comparators form a checkerboard pattern."
 *
 * This is the organization actually fabricated (8 cells of 2-bit
 * characters); the gate-level chip in gatechip.hh mirrors it
 * transistor for transistor.
 */

#ifndef SPM_CORE_BITSERIAL_HH
#define SPM_CORE_BITSERIAL_HH

#include <vector>

#include "core/behavioral.hh"
#include "core/cells.hh"
#include "core/matcher.hh"
#include "systolic/engine.hh"
#include "systolic/trace.hh"

namespace spm::core
{

/**
 * A grid of single-bit comparators (bits rows by cells columns) over
 * one row of accumulators. Bit b-1 (most significant) enters row 0;
 * row r runs one beat behind row r-1; comparison results trickle down
 * one row per beat, arriving at the accumulators with the control
 * stream.
 */
class BitSerialChip
{
  public:
    /**
     * @param num_cells character cells (columns)
     * @param bits_per_char bits per character; the 1979 prototype had
     *        8 cells of 2-bit characters
     */
    BitSerialChip(std::size_t num_cells, BitWidth bits_per_char,
                  Picoseconds beat_period_ps = prototypeBeatPs);

    std::size_t cellCount() const { return numCells; }
    BitWidth bits() const { return numBits; }

    /** Force the pattern bit entering comparator row @p row. */
    void feedPatternBit(unsigned row, const BitToken &tok);

    /** Force the string bit entering comparator row @p row. */
    void feedStringBit(unsigned row, const BitToken &tok);

    /** Force the control token entering the accumulator row. */
    void feedControl(const CtlToken &tok) { ctlIn.force(tok); }

    /** Force the result slot entering the accumulator row. */
    void feedResult(const ResToken &tok) { rIn.force(tok); }

    void step() { eng.step(); }

    /** Committed result token at the left edge of the accumulators. */
    ResToken resultOut() const;

    systolic::Engine &engine() { return eng; }
    const systolic::Engine &engine() const { return eng; }

    /** Engine cell index of comparator (row, col); fault addressing. */
    std::size_t comparatorIndex(unsigned row, std::size_t col) const
    {
        return static_cast<std::size_t>(row) * numCells + col;
    }

    /** Engine cell index of accumulator @p col; fault addressing. */
    std::size_t accumulatorIndex(std::size_t col) const
    {
        return static_cast<std::size_t>(numBits) * numCells + col;
    }

    void attachTrace(systolic::TraceRecorder *rec)
    {
        eng.attachTrace(rec);
    }

  private:
    std::size_t numCells;
    BitWidth numBits;
    systolic::Engine eng;
    std::vector<systolic::Latch<BitToken>> pBitIn;
    std::vector<systolic::Latch<BitToken>> sBitIn;
    systolic::Latch<CtlToken> ctlIn;
    systolic::Latch<ResToken> rIn;
    systolic::Latch<DToken> dTop;
    /** comparators[row][col] */
    std::vector<std::vector<BitComparatorCell *>> comparators;
    std::vector<AccumulatorCell *> accumulators;
};

/**
 * Matcher over the bit-serial chip. Characters are decomposed into
 * staggered bit streams on feed and results collected from the
 * accumulator row, using the same ChipFeedPlan schedule shifted by
 * the row index.
 */
class BitSerialMatcher : public Matcher
{
  public:
    /**
     * @param num_cells cells per chip; 0 sizes to the pattern
     * @param bits_per_char bits per character; 0 derives the minimum
     *        width from the workload
     */
    explicit BitSerialMatcher(std::size_t num_cells = 0,
                              BitWidth bits_per_char = 0)
        : cells(num_cells), bitsPerChar(bits_per_char)
    {
    }

    BitVec match(std::span<const Symbol> text,
                 std::span<const Symbol> pattern) override;

    std::string name() const override { return "systolic-bitserial"; }

    Beat lastBeats() const { return beatsUsed; }

    /**
     * Install a hook run on each freshly built chip before the match
     * starts -- the seam fault campaigns use to attach an injector to
     * the chip's engine.
     */
    void setChipPrep(std::function<void(BitSerialChip &)> prep)
    {
        chipPrep = std::move(prep);
    }

  private:
    std::size_t cells;
    BitWidth bitsPerChar;
    Beat beatsUsed = 0;
    std::function<void(BitSerialChip &)> chipPrep;
};

} // namespace spm::core

#endif // SPM_CORE_BITSERIAL_HH
