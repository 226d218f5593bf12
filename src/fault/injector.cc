#include "fault/injector.hh"

#include <string>

#include "core/behavioral.hh"
#include "core/bitserial.hh"
#include "core/gatechip.hh"
#include "util/logging.hh"

namespace spm::fault
{

using systolic::FaultOp;
using systolic::FaultPoint;

namespace
{

[[noreturn]] void
badSite(const Fault &f, const std::string &why)
{
    throw InvalidFaultSite("invalid fault site (" + f.describe() +
                           "): " + why);
}

/** Bit-range check against the latch the fault addresses. */
void
validateBit(const Fault &f, unsigned sym_bits)
{
    switch (f.point) {
    case FaultPoint::PatternLatch:
    case FaultPoint::StringLatch:
        if (f.bit >= sym_bits)
            badSite(f, "symbol latch has " + std::to_string(sym_bits) +
                           " bits");
        break;
    case FaultPoint::ControlLatch:
        if (f.bit >= 2)
            badSite(f, "control latch has 2 bits (lambda, x)");
        break;
    case FaultPoint::CompareLatch:
    case FaultPoint::ResultLatch:
        if (f.bit != 0)
            badSite(f, "single-bit latch");
        break;
    }
}

void
validateCell(const Fault &f, std::size_t cells)
{
    if (f.cell >= cells)
        badSite(f, "array has " + std::to_string(cells) + " cells");
}

} // namespace

void
FaultInjector::attach(systolic::Engine &eng, CellResolver resolver)
{
    eng.onAfterCommit(
        [this, &eng, resolver = std::move(resolver)](Beat beat) {
            for (const Fault &f : faults)
                injectOne(eng, resolver, f, beat);
        });
}

void
FaultInjector::applyAt(systolic::Engine &eng, const CellResolver &resolver,
                       const Fault &f, FaultOp op)
{
    validateBit(f, symBits);
    const std::size_t idx = resolver(f);
    if (idx >= eng.cellCount())
        badSite(f, "resolved to engine cell " + std::to_string(idx) +
                       " of " + std::to_string(eng.cellCount()));
    if (eng.cell(idx).applyFault(f.point, op, f.bit))
        ++hits;
}

void
FaultInjector::injectOne(systolic::Engine &eng,
                         const CellResolver &resolver, const Fault &f,
                         Beat beat)
{
    switch (f.kind) {
    case FaultKind::StuckAt0:
    case FaultKind::StuckAt1:
        applyAt(eng, resolver, f, f.op());
        break;
    case FaultKind::TransientFlip:
        if (beat == f.beat)
            applyAt(eng, resolver, f, FaultOp::Flip);
        break;
    case FaultKind::DeadCell: {
        // Every output of the cell reads 0 every beat: both symbol
        // latches bit by bit, the comparison, and the accumulator's
        // control pair and result slot.
        Fault sub = f;
        for (FaultPoint point :
             {FaultPoint::PatternLatch, FaultPoint::StringLatch}) {
            sub.point = point;
            for (unsigned b = 0; b < symBits; ++b) {
                sub.bit = b;
                applyAt(eng, resolver, sub, FaultOp::Stuck0);
            }
        }
        sub.point = FaultPoint::CompareLatch;
        sub.bit = 0;
        applyAt(eng, resolver, sub, FaultOp::Stuck0);
        sub.point = FaultPoint::ControlLatch;
        for (unsigned b = 0; b < 2; ++b) {
            sub.bit = b;
            applyAt(eng, resolver, sub, FaultOp::Stuck0);
        }
        sub.point = FaultPoint::ResultLatch;
        sub.bit = 0;
        applyAt(eng, resolver, sub, FaultOp::Stuck0);
        break;
    }
    }
}

FaultInjector::CellResolver
behavioralResolver(const core::BehavioralChip &chip)
{
    return [&chip](const Fault &f) {
        validateCell(f, chip.cellCount());
        const bool comparator = f.point == FaultPoint::PatternLatch ||
                                f.point == FaultPoint::StringLatch ||
                                f.point == FaultPoint::CompareLatch;
        return chip.cellIndex(f.cell, comparator);
    };
}

FaultInjector::CellResolver
bitSerialResolver(const core::BitSerialChip &chip)
{
    return [&chip](const Fault &f) {
        validateCell(f, chip.cellCount());
        const unsigned rows = chip.bits();
        switch (f.point) {
        case FaultPoint::PatternLatch:
        case FaultPoint::StringLatch:
            // A symbol bit beyond the grid would alias into a
            // neighboring column's row if clamped -- reject it.
            if (f.bit >= rows)
                badSite(f, "grid has " + std::to_string(rows) +
                               " comparator rows");
            return chip.comparatorIndex(rows - 1 - f.bit, f.cell);
        case FaultPoint::CompareLatch:
            return chip.comparatorIndex(rows - 1, f.cell);
        case FaultPoint::ControlLatch:
        case FaultPoint::ResultLatch:
            break;
        }
        return chip.accumulatorIndex(f.cell);
    };
}

namespace
{

/** Force one named node; throws InvalidFaultSite when absent. */
void
forceNode(core::GateChip &chip, const std::string &name,
          gate::LogicValue v, std::size_t &forced)
{
    const gate::NodeId id = chip.netlist().findNode(name);
    if (id == gate::invalidNode)
        throw InvalidFaultSite("invalid fault site: netlist has no "
                               "node named " +
                               name);
    chip.netlist().forceStuckAt(id, v, chip.clock().now());
    ++forced;
}

std::string
wireName(const char *base, unsigned row, std::size_t col)
{
    return std::string(base) + std::to_string(row) + "_" +
           std::to_string(col);
}

} // namespace

std::size_t
lowerStuckAtFaults(core::GateChip &chip, const std::vector<Fault> &faults)
{
    const unsigned rows = chip.bits();
    std::size_t forced = 0;
    for (const Fault &f : faults) {
        if (!f.isPermanent())
            continue;
        validateCell(f, chip.cellCount());
        if (f.kind != FaultKind::DeadCell)
            validateBit(f, rows);
        const gate::LogicValue v = f.kind == FaultKind::StuckAt1
            ? gate::LogicValue::H
            : gate::LogicValue::L;
        const std::string c = std::to_string(f.cell);
        if (f.kind == FaultKind::DeadCell) {
            for (unsigned row = 0; row < rows; ++row) {
                forceNode(chip, wireName("p_o", row, f.cell), v, forced);
                forceNode(chip, wireName("s_o", row, f.cell), v, forced);
                forceNode(chip, wireName("d_o", row, f.cell), v, forced);
            }
            forceNode(chip, "l_o_" + c, v, forced);
            forceNode(chip, "x_o_" + c, v, forced);
            forceNode(chip, "r_o_" + c, v, forced);
            continue;
        }
        switch (f.point) {
        case FaultPoint::PatternLatch:
            forceNode(chip, wireName("p_o", rows - 1 - f.bit, f.cell),
                      v, forced);
            break;
        case FaultPoint::StringLatch:
            forceNode(chip, wireName("s_o", rows - 1 - f.bit, f.cell),
                      v, forced);
            break;
        case FaultPoint::CompareLatch:
            forceNode(chip, wireName("d_o", rows - 1, f.cell), v, forced);
            break;
        case FaultPoint::ControlLatch:
            forceNode(chip, (f.bit % 2 == 0 ? "l_o_" : "x_o_") + c, v,
                      forced);
            break;
        case FaultPoint::ResultLatch:
            forceNode(chip, "r_o_" + c, v, forced);
            break;
        }
    }
    chip.netlist().settle(chip.clock().now());
    return forced;
}

} // namespace spm::fault
