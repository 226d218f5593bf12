#include "extensions/counting.hh"

#include "core/behavioral.hh"
#include "util/logging.hh"

namespace spm::ext
{

CountingArray::CountingArray(std::size_t num_cells,
                             Picoseconds beat_period_ps)
    : numCells(num_cells), eng(beat_period_ps)
{
    spm_assert(num_cells > 0, "array needs at least one cell");

    comparators.reserve(numCells);
    counters.reserve(numCells);
    for (std::size_t c = 0; c < numCells; ++c) {
        comparators.push_back(&eng.makeCell<core::CharComparatorCell>(
            "cmp" + std::to_string(c), static_cast<unsigned>(c % 2)));
    }
    for (std::size_t c = 0; c < numCells; ++c) {
        counters.push_back(&eng.makeCell<CountingCell>(
            "cnt" + std::to_string(c),
            static_cast<unsigned>((c + 1) % 2)));
    }
    for (std::size_t c = 0; c < numCells; ++c) {
        comparators[c]->connect(
            c == 0 ? &pIn : &comparators[c - 1]->pOut(),
            c == numCells - 1 ? &sIn : &comparators[c + 1]->sOut());
        counters[c]->connect(
            c == 0 ? &ctlIn : &counters[c - 1]->ctlOut(),
            c == numCells - 1 ? &rIn : &counters[c + 1]->rOut(),
            &comparators[c]->dOut());
    }
}

NumToken
CountingArray::resultOut() const
{
    return counters.front()->rOut().read();
}

std::vector<unsigned>
SystolicMatchCounter::count(std::span<const Symbol> text,
                            std::span<const Symbol> pattern) const
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    std::vector<unsigned> result(n, 0);
    if (len == 0 || n == 0 || len > n)
        return result;

    const std::size_t m = cells == 0 ? len : cells;
    CountingArray array(m);
    const core::ChipFeedPlan plan(m, pattern, n);

    std::size_t collected = 0;
    for (Beat u = 0; u < plan.totalBeats() && collected < n; ++u) {
        array.feedPattern(plan.patternAt(u));
        array.feedControl(plan.controlAt(u));
        array.feedString(plan.stringAt(u, text));
        const core::ResToken r = plan.resultAt(u);
        array.feedResult(NumToken{0, r.valid});
        array.step();

        const NumToken out = array.resultOut();
        if (out.valid) {
            result[collected] = collected >= len - 1
                ? static_cast<unsigned>(out.value)
                : 0;
            ++collected;
        }
    }
    spm_assert(collected == n, "collected ", collected, " of ", n,
               " counts");
    return result;
}

} // namespace spm::ext
