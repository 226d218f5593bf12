/**
 * @file
 * Wafer-scale integration (Section 5).
 *
 * "Modularity of algorithms is especially important in wafer-scale
 * integration ... Manufacturing defects make it essential to be able
 * to modify the interconnections so that a defective circuit is
 * replaced by a functioning one on the same wafer. This can be done
 * easily if there are only a few types of circuits with regular
 * interconnections."
 *
 * Because the pattern matcher is a linear array of identical cells,
 * harvesting a working machine from a defective wafer reduces to
 * threading a chain through the good sites. Wafer models a grid of
 * cell sites with independent defects; snakeHarvest() builds the
 * chain a boustrophedon route would wire, and dicedYield() gives the
 * conventional alternative of sawing the wafer into fixed chips.
 */

#ifndef SPM_FLOW_WAFER_HH
#define SPM_FLOW_WAFER_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "util/bitvec.hh"
#include "util/rng.hh"

namespace spm::flow
{

/** A wafer of identical cell sites with fabrication defects. */
class Wafer
{
  public:
    /**
     * @param rows,cols grid of cell sites; the grid must be non-empty
     * @param defect_prob independent probability a site is bad,
     *        in [0, 1]
     * @param seed deterministic defect map seed
     *
     * @throws std::invalid_argument when rows*cols == 0 or
     *         defect_prob lies outside [0, 1]
     */
    Wafer(unsigned rows, unsigned cols, double defect_prob,
          std::uint64_t seed);

    unsigned rows() const { return numRows; }
    unsigned cols() const { return numCols; }

    /** Whether the site at (row, col) fabricated correctly. */
    bool isGood(unsigned row, unsigned col) const;

    /**
     * Retire the site at (row, col): a cell that died at runtime is
     * indistinguishable from a fabrication defect to the routing, so
     * the same snake reconfiguration degrades the machine from N to
     * N-k cells by re-harvesting around it.
     */
    void markBad(unsigned row, unsigned col);

    /** Number of working sites on the wafer. */
    std::size_t goodCells() const;

    /** Result of threading a linear array through the good sites. */
    struct Harvest
    {
        /** Working cells wired into one linear array. */
        std::size_t chainLength = 0;
        /** Defective sites bypassed. */
        std::size_t skips = 0;
        /**
         * Longest run of consecutive bypassed sites plus one: the
         * longest single wire the reconfiguration needs, which
         * bounds the slowed beat of the harvested machine.
         */
        std::size_t longestJump = 1;
        /** Fraction of fabricated sites harvested. */
        double harvestRatio = 0.0;
    };

    /**
     * Boustrophedon (snake) reconfiguration: traverse row 0 left to
     * right, row 1 right to left, and so on, wiring consecutive good
     * sites together and bypassing bad ones.
     */
    Harvest snakeHarvest() const;

    /**
     * The (row, col) sites of the harvested chain in snake order:
     * position i of the linear array lives at snakeSites()[i]. This
     * is the map bypass recovery uses to translate a dead array cell
     * back to the wafer site to retire.
     */
    std::vector<std::pair<unsigned, unsigned>> snakeSites() const;

    /**
     * The conventional alternative: dice the wafer into chips of
     * @p cells_per_chip consecutive sites (row-major) and keep only
     * the chips with every cell good. Returns working chips.
     */
    std::size_t dicedChips(std::size_t cells_per_chip) const;

    /** Analytic yield of an n-cell monolithic chip: (1-p)^n. */
    static double expectedChipYield(std::size_t cells,
                                    double defect_prob);

  private:
    unsigned numRows;
    unsigned numCols;
    BitVec good;
};

} // namespace spm::flow

#endif // SPM_FLOW_WAFER_HH
