/**
 * @file
 * The match-counting array (Section 3.4).
 *
 * "We might wish to count how many characters in each substring match
 * the corresponding characters in the pattern. This problem can be
 * solved by replacing the result bit stream by a stream of integers,
 * and replacing the accumulator cell by a counting cell."
 */

#ifndef SPM_EXT_COUNTING_HH
#define SPM_EXT_COUNTING_HH

#include <span>
#include <vector>

#include "core/cells.hh"
#include "extensions/numcells.hh"
#include "systolic/engine.hh"

namespace spm::ext
{

/**
 * A comparator row over a counting row: identical structure to the
 * pattern matcher with integer result slots.
 */
class CountingArray
{
  public:
    explicit CountingArray(std::size_t num_cells,
                           Picoseconds beat_period_ps = prototypeBeatPs);

    std::size_t cellCount() const { return numCells; }

    void feedPattern(const core::PatToken &tok) { pIn.force(tok); }
    void feedControl(const core::CtlToken &tok) { ctlIn.force(tok); }
    void feedString(const core::StrToken &tok) { sIn.force(tok); }
    void feedResult(const NumToken &tok) { rIn.force(tok); }

    void step() { eng.step(); }

    NumToken resultOut() const;

    systolic::Engine &engine() { return eng; }

  private:
    std::size_t numCells;
    systolic::Engine eng;
    systolic::Latch<core::PatToken> pIn;
    systolic::Latch<core::CtlToken> ctlIn;
    systolic::Latch<core::StrToken> sIn;
    systolic::Latch<NumToken> rIn;
    std::vector<core::CharComparatorCell *> comparators;
    std::vector<CountingCell *> counters;
};

/**
 * Host-level driver: per text position i >= k, the number of
 * positions of the substring ending at i that match the pattern
 * (wild cards always match); 0 for i < k.
 */
class SystolicMatchCounter
{
  public:
    /** @param num_cells cells; 0 sizes the array to the pattern. */
    explicit SystolicMatchCounter(std::size_t num_cells = 0)
        : cells(num_cells)
    {
    }

    std::vector<unsigned> count(std::span<const Symbol> text,
                                std::span<const Symbol> pattern) const;

  private:
    std::size_t cells;
};

} // namespace spm::ext

#endif // SPM_EXT_COUNTING_HH
