/**
 * @file
 * Beat-by-beat trace recording.
 *
 * Figure 3-2 of the paper traces "the flow of characters" through the
 * cell array for several beats. TraceRecorder reproduces exactly that
 * artifact: after each beat it snapshots every cell's stateString() and
 * can render the collected history as a table with one row per beat and
 * one column per cell.
 */

#ifndef SPM_SYSTOLIC_TRACE_HH
#define SPM_SYSTOLIC_TRACE_HH

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/types.hh"

namespace spm::systolic
{

class Engine;

/** Records cell states after each beat for later rendering. */
class TraceRecorder
{
  public:
    /**
     * @param max_beats stop recording after this many beats to bound
     *        memory; 0 means unlimited.
     */
    explicit TraceRecorder(std::size_t max_beats = 0)
        : beatLimit(max_beats)
    {
    }

    /** Capture the post-commit state of every cell; called by Engine. */
    void snapshot(const Engine &engine, Beat beat);

    /**
     * Append a row of states directly -- how the conformance golden
     * traces build a canonical trace from cells that live in several
     * engines (e.g., the chips of a cascade re-mapped to the column
     * order of the equivalent single chip).
     */
    void appendRow(Beat beat, std::vector<std::string> states);

    /** Number of state columns in recorded rows (0 when empty). */
    std::size_t cellCount() const
    {
        return rows.empty() ? 0 : rows.front().states.size();
    }

    /**
     * First (row, column) where two recorded traces diverge. A length
     * or shape difference reports the first row index past the
     * shorter trace with column 0. nullopt when identical.
     */
    std::optional<std::pair<std::size_t, std::size_t>> firstDifference(
        const TraceRecorder &other) const;

    /** Number of recorded beats. */
    std::size_t beatCount() const { return rows.size(); }

    /** Recorded state of cell @p cell_idx at recorded beat @p row. */
    const std::string &at(std::size_t row, std::size_t cell_idx) const;

    /** Beat index of recorded row @p row. */
    Beat beatOf(std::size_t row) const;

    /**
     * Render the trace in the style of Figure 3-2: one row per beat,
     * one column per cell, active cells marked with '*'.
     */
    std::string render(const Engine &engine) const;

  private:
    struct Row
    {
        Beat beat;
        std::vector<std::string> states;
    };

    std::size_t beatLimit;
    std::vector<Row> rows;
};

} // namespace spm::systolic

#endif // SPM_SYSTOLIC_TRACE_HH
