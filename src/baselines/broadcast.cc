#include "baselines/broadcast.hh"

#include "core/reference.hh"

namespace spm::baselines
{

Picoseconds
BroadcastCost::stretchedBeatPs(Picoseconds base_ps) const
{
    return base_ps +
           base_ps * static_cast<Picoseconds>(fanout) / driverStrength;
}

BitVec
BroadcastMatcher::match(std::span<const Symbol> text,
                        std::span<const Symbol> pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    BitVec r(n);
    beatsUsed = 0;
    loadBeats = 0;
    cost = BroadcastCost{len};
    if (len == 0 || len > n)
        return r;

    // Loading phase: the pattern is shifted into the cells one
    // character per beat -- the setup cost the bidirectional systolic
    // design avoids (Section 3.3.1: "Loading the cells in preparation
    // for a pattern match would require extra time and circuitry").
    struct Cell
    {
        Symbol p = 0;
        bool x = false;
        bool partial = false;
    };
    std::vector<Cell> cells(len);
    for (std::size_t j = 0; j < len; ++j) {
        cells[j].p = pattern[j] == wildcardSymbol ? 0 : pattern[j];
        cells[j].x = pattern[j] == wildcardSymbol;
        ++loadBeats;
    }
    beatsUsed = loadBeats;

    // Matching phase: one text character broadcast to all cells per
    // beat; partial results ripple one cell per beat through a chain
    // of AND gates, so cell j holds the conjunction over the last
    // j + 1 characters.
    for (std::size_t i = 0; i < n; ++i) {
        const Symbol s = text[i];
        // All cells update simultaneously from the previous beat's
        // partials; iterate right to left so reads see old values.
        for (std::size_t j = len; j-- > 0;) {
            const bool here = cells[j].x || cells[j].p == s;
            const bool chain = j == 0 ? true : cells[j - 1].partial;
            cells[j].partial = here && chain;
        }
        ++beatsUsed;
        if (cells[len - 1].partial)
            r.set(i, true);
    }
    return r;
}

} // namespace spm::baselines
