#include "flow/wafer.hh"

#include <cmath>
#include <stdexcept>
#include <string>

#include "util/logging.hh"

namespace spm::flow
{

Wafer::Wafer(unsigned rows, unsigned cols, double defect_prob,
             std::uint64_t seed)
    : numRows(rows), numCols(cols)
{
    // Configuration errors, not simulator bugs: reject at the API
    // boundary so no downstream model sees a zero-site wafer or a
    // nonsensical Bernoulli parameter.
    if (rows == 0 || cols == 0)
        throw std::invalid_argument(
            "Wafer: grid must be non-empty, got " +
            std::to_string(rows) + "x" + std::to_string(cols));
    if (!(defect_prob >= 0.0 && defect_prob <= 1.0))
        throw std::invalid_argument(
            "Wafer: defect probability must be in [0, 1], got " +
            std::to_string(defect_prob));
    Rng rng(seed);
    good.resize(static_cast<std::size_t>(rows) * cols);
    for (std::size_t i = 0; i < good.size(); ++i)
        good.set(i, !rng.nextBool(defect_prob));
}

bool
Wafer::isGood(unsigned row, unsigned col) const
{
    spm_assert(row < numRows && col < numCols, "site out of range");
    return good.get(static_cast<std::size_t>(row) * numCols + col);
}

void
Wafer::markBad(unsigned row, unsigned col)
{
    spm_assert(row < numRows && col < numCols, "site out of range");
    good.set(static_cast<std::size_t>(row) * numCols + col, false);
}

std::size_t
Wafer::goodCells() const
{
    return good.popcount();
}

Wafer::Harvest
Wafer::snakeHarvest() const
{
    Harvest h;
    std::size_t run_of_bad = 0;
    bool have_prev_good = false;
    for (unsigned r = 0; r < numRows; ++r) {
        for (unsigned i = 0; i < numCols; ++i) {
            // Even rows run left to right, odd rows right to left,
            // so consecutive sites in traversal order are physically
            // adjacent.
            const unsigned c = r % 2 == 0 ? i : numCols - 1 - i;
            if (isGood(r, c)) {
                ++h.chainLength;
                if (have_prev_good && run_of_bad + 1 > h.longestJump)
                    h.longestJump = run_of_bad + 1;
                have_prev_good = true;
                run_of_bad = 0;
            } else {
                // Only count a skip when it bypasses between two
                // harvested cells; leading/trailing bad sites cost
                // nothing.
                if (have_prev_good)
                    ++run_of_bad;
                ++h.skips;
            }
        }
    }
    h.harvestRatio = good.empty()
        ? 0.0
        : static_cast<double>(h.chainLength) /
              static_cast<double>(good.size());
    return h;
}

std::vector<std::pair<unsigned, unsigned>>
Wafer::snakeSites() const
{
    std::vector<std::pair<unsigned, unsigned>> sites;
    sites.reserve(goodCells());
    for (unsigned r = 0; r < numRows; ++r) {
        for (unsigned i = 0; i < numCols; ++i) {
            const unsigned c = r % 2 == 0 ? i : numCols - 1 - i;
            if (isGood(r, c))
                sites.emplace_back(r, c);
        }
    }
    return sites;
}

std::size_t
Wafer::dicedChips(std::size_t cells_per_chip) const
{
    spm_assert(cells_per_chip > 0, "chip needs at least one cell");
    std::size_t working = 0;
    for (std::size_t at = 0; at + cells_per_chip <= good.size();
         at += cells_per_chip) {
        bool all_good = true;
        for (std::size_t j = 0; j < cells_per_chip && all_good; ++j)
            all_good = good.get(at + j);
        working += all_good;
    }
    return working;
}

double
Wafer::expectedChipYield(std::size_t cells, double defect_prob)
{
    return std::pow(1.0 - defect_prob, static_cast<double>(cells));
}

} // namespace spm::flow
