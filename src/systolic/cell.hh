/**
 * @file
 * The abstract systolic cell.
 *
 * "The chip is divided into character cells, each of which can compare
 * two characters and accumulate a temporary result" (Section 3.2.1).
 * CellBase is the simulation-side abstraction: a named unit that, on
 * every beat, computes staged outputs from latched inputs (evaluate)
 * and then latches them (commit). Concrete cells -- comparators,
 * accumulators, counting cells, difference cells, adder cells -- live
 * in src/core and src/extensions.
 */

#ifndef SPM_SYSTOLIC_CELL_HH
#define SPM_SYSTOLIC_CELL_HH

#include <string>

#include "systolic/fault.hh"
#include "util/types.hh"

namespace spm::systolic
{

/**
 * Base class for all simulated systolic cells.
 *
 * The engine drives each cell through a strict two-step protocol per
 * beat: evaluate() reads only values latched on previous beats and
 * stages new outputs; commit() publishes the staged outputs. Because
 * no cell observes another cell's same-beat writes, the simultaneous
 * data movement of the hardware is reproduced exactly regardless of
 * the order in which the engine visits cells.
 */
class CellBase
{
  public:
    /**
     * @param cell_name name used in traces and stats
     * @param cell_parity beat parity (0 or 1) on which this cell holds
     *        a valid meeting of data streams; purely observational --
     *        data moves on every beat either way (Section 3.2.1)
     */
    CellBase(std::string cell_name, unsigned cell_parity)
        : name(std::move(cell_name)), parity(cell_parity % 2)
    {
    }

    virtual ~CellBase() = default;

    CellBase(const CellBase &) = delete;
    CellBase &operator=(const CellBase &) = delete;

    /** Stage next-beat outputs from current inputs. */
    virtual void evaluate(Beat beat) = 0;

    /** Publish staged outputs. */
    virtual void commit() = 0;

    /**
     * Whether this cell holds a valid data meeting on @p beat.
     * Active and idle cells alternate in space and time, forming the
     * checkerboard of Figure 3-4.
     */
    bool activeOn(Beat beat) const { return beat % 2 == parity; }

    /**
     * Corrupt a committed output latch of this cell: apply @p op to
     * bit @p bit of the value stored at @p point. Called between
     * commit and the next evaluate (see Engine::onAfterCommit), so
     * neighbors read the corrupted value on the following beat.
     *
     * @return true when the cell has the addressed point (the fault
     *         landed), false when the point does not exist here.
     */
    virtual bool
    applyFault(FaultPoint point, FaultOp op, unsigned bit)
    {
        (void)point;
        (void)op;
        (void)bit;
        return false;
    }

    /** One-line description of cell contents for trace rendering. */
    virtual std::string stateString() const { return ""; }

    const std::string &cellName() const { return name; }

  private:
    std::string name;
    unsigned parity;
};

} // namespace spm::systolic

#endif // SPM_SYSTOLIC_CELL_HH
