#include "systolic/trace.hh"

#include <algorithm>
#include <sstream>

#include "systolic/engine.hh"
#include "util/logging.hh"
#include "util/table.hh"

namespace spm::systolic
{

void
TraceRecorder::snapshot(const Engine &engine, Beat beat)
{
    if (beatLimit != 0 && rows.size() >= beatLimit)
        return;
    Row row;
    row.beat = beat;
    row.states.reserve(engine.cellCount());
    for (std::size_t i = 0; i < engine.cellCount(); ++i) {
        const CellBase &c = engine.cell(i);
        std::string s = c.stateString();
        if (c.activeOn(beat))
            s += "*";
        row.states.push_back(std::move(s));
    }
    rows.push_back(std::move(row));
}

void
TraceRecorder::appendRow(Beat beat, std::vector<std::string> states)
{
    if (beatLimit != 0 && rows.size() >= beatLimit)
        return;
    rows.push_back(Row{beat, std::move(states)});
}

std::optional<std::pair<std::size_t, std::size_t>>
TraceRecorder::firstDifference(const TraceRecorder &other) const
{
    const std::size_t common = std::min(rows.size(), other.rows.size());
    for (std::size_t r = 0; r < common; ++r) {
        const auto &a = rows[r].states;
        const auto &b = other.rows[r].states;
        const std::size_t cols = std::min(a.size(), b.size());
        for (std::size_t c = 0; c < cols; ++c)
            if (a[c] != b[c])
                return std::make_pair(r, c);
        if (a.size() != b.size())
            return std::make_pair(r, cols);
    }
    if (rows.size() != other.rows.size())
        return std::make_pair(common, std::size_t(0));
    return std::nullopt;
}

const std::string &
TraceRecorder::at(std::size_t row, std::size_t cell_idx) const
{
    spm_assert(row < rows.size(), "trace row out of range");
    spm_assert(cell_idx < rows[row].states.size(),
               "trace cell index out of range");
    return rows[row].states[cell_idx];
}

Beat
TraceRecorder::beatOf(std::size_t row) const
{
    spm_assert(row < rows.size(), "trace row out of range");
    return rows[row].beat;
}

std::string
TraceRecorder::render(const Engine &engine) const
{
    Table table("Beat-by-beat cell trace (Figure 3-2 style; '*' marks "
                "active cells)");
    std::vector<std::string> header;
    header.push_back("beat");
    for (std::size_t i = 0; i < engine.cellCount(); ++i)
        header.push_back(engine.cell(i).cellName());
    table.setHeader(std::move(header));

    for (const auto &row : rows) {
        std::vector<std::string> cells;
        cells.push_back(std::to_string(row.beat));
        for (const auto &s : row.states)
            cells.push_back(s);
        table.addRow(std::move(cells));
    }
    return table.toString();
}

} // namespace spm::systolic
