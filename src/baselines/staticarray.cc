#include "baselines/staticarray.hh"

#include "core/reference.hh"

namespace spm::baselines
{

BitVec
StaticArrayMatcher::match(const std::vector<Symbol> &text,
                          const std::vector<Symbol> &pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    BitVec r(n);
    beatsUsed = 0;
    loadBeats = 0;
    if (len == 0 || len > n)
        return r;

    // Loading phase: one pattern character shifted in per beat.
    struct Cell
    {
        Symbol p = 0;
        bool x = false;
    };
    std::vector<Cell> cells(len);
    for (std::size_t j = 0; j < len; ++j) {
        cells[j].p = pattern[j] == wildcardSymbol ? 0 : pattern[j];
        cells[j].x = pattern[j] == wildcardSymbol;
        ++loadBeats;
    }
    beatsUsed = loadBeats;

    // Matching phase. Text character s_i is at cell c on beat i + c;
    // the result token for substring start i0 sits at cell c on beats
    // i0 + 2c and i0 + 2c + 1 (half speed), accumulating on arrival,
    // when exactly s_{i0+c} is passing through.
    // Because result tokens enter every beat but advance only every
    // other beat, each cell holds two of them: the one that arrived
    // this beat (young) and the one resting from last beat (old).
    struct ResTok
    {
        std::size_t start = 0;
        bool value = true;
        bool active = false;
    };
    std::vector<ResTok> young(len), old(len);

    const Beat total = static_cast<Beat>(n) + 2 * len + 2;
    for (Beat t = 0; t < total; ++t) {
        // Old tokens leave their cells; young ones become old.
        std::vector<ResTok> arriving(len);
        for (std::size_t c = 0; c < len; ++c) {
            if (!old[c].active)
                continue;
            if (c + 1 < len) {
                arriving[c + 1] = old[c];
            } else {
                const std::size_t end = old[c].start + len - 1;
                if (end < n)
                    r.set(end, old[c].value);
            }
        }
        old = young;
        young = std::move(arriving);

        // A new result token enters cell 0 on every beat while its
        // substring start exists.
        if (t < n)
            young[0] = ResTok{static_cast<std::size_t>(t), true, true};

        // Accumulate: each newly arrived token sees the text
        // character passing its cell this beat.
        for (std::size_t c = 0; c < len; ++c) {
            if (!young[c].active)
                continue;
            const std::size_t s_idx = young[c].start + c;
            if (s_idx >= n) {
                young[c].value = false;
                continue;
            }
            const bool here = cells[c].x || cells[c].p == text[s_idx];
            young[c].value = young[c].value && here;
        }
        ++beatsUsed;
    }
    return r;
}

} // namespace spm::baselines
