#include "core/gatechip.hh"

#include <algorithm>
#include <span>

#include "core/behavioral.hh"
#include "util/logging.hh"
#include "util/strings.hh"

namespace spm::core
{

using gate::LogicValue;
using gate::NodeId;

GateChip::GateChip(std::size_t num_cells, BitWidth bits_per_char,
                   Picoseconds beat_period_ps, Picoseconds retention_ps)
    : numCells(num_cells), numBits(bits_per_char),
      net("pattern-matcher"), clk(net, beat_period_ps, retention_ps)
{
    spm_assert(num_cells > 0, "chip needs at least one cell");
    spm_assert(bits_per_char >= 1 && bits_per_char <= 8,
               "gate-level chip supports 1..8 bits per character");

    // Primary inputs on the chip edges.
    pInNodes.resize(numBits);
    sInNodes.resize(numBits);
    for (unsigned row = 0; row < numBits; ++row) {
        pInNodes[row] = net.addNode("p_in" + std::to_string(row));
        sInNodes[row] = net.addNode("s_in" + std::to_string(row));
        net.markInput(pInNodes[row]);
        net.markInput(sInNodes[row]);
    }
    lambdaInNode = net.addNode("lambda_in");
    xInNode = net.addNode("x_in");
    rInNode = net.addNode("r_in");
    net.markInput(lambdaInNode);
    net.markInput(xInNode);
    net.markInput(rInNode);

    // Constant logical-TRUE d inputs above the top comparator row,
    // presented in each top cell's expected polarity.
    std::vector<NodeId> d_top(numCells);
    for (std::size_t c = 0; c < numCells; ++c) {
        d_top[c] = net.addNode("d_top" + std::to_string(c));
        net.markInput(d_top[c]);
    }

    // Pre-create every inter-cell wire, then instantiate cells in any
    // order (the builders only attach devices between given nodes).
    auto wire_name = [](const char *base, unsigned row, std::size_t col) {
        return std::string(base) + std::to_string(row) + "_" +
               std::to_string(col);
    };
    // p_out[row][c]: pattern wire driven by comparator (row, c).
    // s_out[row][c]: string wire driven by comparator (row, c).
    // d_out[row][c]: comparison wire driven down by (row, c).
    std::vector<std::vector<NodeId>> p_out(numBits), s_out(numBits),
        d_out(numBits);
    for (unsigned row = 0; row < numBits; ++row) {
        p_out[row].resize(numCells);
        s_out[row].resize(numCells);
        d_out[row].resize(numCells);
        for (std::size_t c = 0; c < numCells; ++c) {
            p_out[row][c] = net.addNode(wire_name("p_o", row, c));
            s_out[row][c] = net.addNode(wire_name("s_o", row, c));
            d_out[row][c] = net.addNode(wire_name("d_o", row, c));
        }
    }
    // Accumulator row wires.
    std::vector<NodeId> l_out(numCells), x_out(numCells), r_out(numCells);
    for (std::size_t c = 0; c < numCells; ++c) {
        l_out[c] = net.addNode("l_o_" + std::to_string(c));
        x_out[c] = net.addNode("x_o_" + std::to_string(c));
        r_out[c] = net.addNode("r_o_" + std::to_string(c));
    }

    // Comparator grid.
    for (unsigned row = 0; row < numBits; ++row) {
        for (std::size_t c = 0; c < numCells; ++c) {
            gate::ComparatorPorts ports;
            ports.pIn = c == 0 ? pInNodes[row] : p_out[row][c - 1];
            ports.sIn =
                c == numCells - 1 ? sInNodes[row] : s_out[row][c + 1];
            ports.dIn = row == 0 ? d_top[c] : d_out[row - 1][c];
            ports.pOut = p_out[row][c];
            ports.sOut = s_out[row][c];
            ports.dOut = d_out[row][c];
            gate::buildComparator(
                net,
                "cmp" + std::to_string(row) + "_" + std::to_string(c),
                ports, clk.phaseFor(parity(row, c)),
                positiveTwin(row, c));
        }
    }

    // Accumulator row (row index numBits in the checkerboard).
    for (std::size_t c = 0; c < numCells; ++c) {
        gate::AccumulatorPorts ports;
        ports.lambdaIn = c == 0 ? lambdaInNode : l_out[c - 1];
        ports.xIn = c == 0 ? xInNode : x_out[c - 1];
        ports.dIn = d_out[numBits - 1][c];
        ports.rIn = c == numCells - 1 ? rInNode : r_out[c + 1];
        ports.lambdaOut = l_out[c];
        ports.xOut = x_out[c];
        ports.rOut = r_out[c];
        const unsigned par = parity(numBits, c);
        gate::buildAccumulator(net, "acc" + std::to_string(c), ports,
                               clk.phaseFor(par),
                               clk.phaseFor(1 - par),
                               positiveTwin(numBits, c));
    }

    rOutNode = r_out[0];
    // The positive twin emits inverted outputs.
    rOutInverted = positiveTwin(numBits, 0);

    // Drive the top-row d constants once: logical TRUE in the
    // polarity each top cell expects.
    for (std::size_t c = 0; c < numCells; ++c) {
        const bool pos = positiveTwin(0, c);
        net.setInput(d_top[c], pos ? LogicValue::H : LogicValue::L, 0);
    }
    net.settle(0);
}

GateChip::Pin
GateChip::patternPin(unsigned row) const
{
    spm_assert(row < numBits, "row out of range");
    return {pInNodes[row], !positiveTwin(row, 0)};
}

GateChip::Pin
GateChip::stringPin(unsigned row) const
{
    spm_assert(row < numBits, "row out of range");
    return {sInNodes[row], !positiveTwin(row, numCells - 1)};
}

void
GateChip::drive(Pin pin, bool value)
{
    net.setInput(pin.node, value != pin.inverted ? LogicValue::H
                                                 : LogicValue::L,
                 clk.now());
}

void
GateChip::setPatternBit(unsigned row, bool bit)
{
    drive(patternPin(row), bit);
}

void
GateChip::setStringBit(unsigned row, bool bit)
{
    drive(stringPin(row), bit);
}

void
GateChip::setControl(bool lambda, bool x)
{
    drive(lambdaPin(), lambda);
    drive(xPin(), x);
}

void
GateChip::setResultIn(bool r)
{
    drive(resultInPin(), r);
}

void
GateChip::tick()
{
    net.settle(clk.now());
    clk.tickBeat();
}

bool
GateChip::resultOut() const
{
    const LogicValue v = net.value(rOutNode);
    spm_assert(v != LogicValue::X, "result output is undefined");
    const bool raw = v == LogicValue::H;
    return rOutInverted ? !raw : raw;
}

bool
GateChip::resultKnown() const
{
    return net.value(rOutNode) != LogicValue::X;
}

namespace
{

/**
 * One run of the chip's feed schedule, driven through @p port: the
 * ChipFeedPlan streams with the per-row bit skew (row r carries bit
 * bits-1-r of each character, r beats late), one Port::tick() per
 * beat, and result collection by exit beat. match() and matchLanes()
 * both run it, so the two entry points cannot drift apart. The port
 * supplies the chip: setPatternBit(row, bit), setStringBit(row,
 * bit_idx, i) with i the text position fed (or ChipFeedPlan::noChar),
 * setControl(lambda, x), setResultIn(r), tick(), and collect(i,
 * beats) right after the beat on which r_i leaves the chip, @p beats
 * being the beats run so far. Returns the beats run.
 */
template <class Port>
Beat
runFeedSchedule(std::size_t m, BitWidth bits,
                std::span<const Symbol> pattern, std::size_t n,
                Port &port)
{
    const std::size_t len = pattern.size();
    const ChipFeedPlan plan(m, pattern, n);
    const unsigned phi = plan.textPhase();

    // Dynamic storage wakes up undefined (X): before the text enters,
    // the pattern must recirculate long enough for a lambda to pass
    // every accumulator and define its temporary result -- the
    // power-up priming the real chip needs too. The warm-up is even
    // so the meeting parity of the two streams is unchanged.
    const Beat warm = 2 * static_cast<Beat>(len + m);
    const Beat total = warm + plan.totalBeats() + bits + 2;

    // Result r_i exits the accumulator row's left edge on beat
    // warm + 2 i + phi + bits + m - 1 (the same schedule the
    // behavioral model exhibits; the hardware has no validity bits,
    // so exits are collected by beat number).
    const Beat first_exit = warm + phi + bits + m - 1;
    std::size_t collected = 0;

    Beat u = 0;
    for (; u < total && collected < n; ++u) {
        for (unsigned row = 0; row < bits; ++row) {
            const unsigned bit_idx = bits - 1 - row;
            const PatToken p =
                u >= row ? plan.patternAt(u - row) : PatToken{};
            port.setPatternBit(row,
                               p.valid && ((p.sym >> bit_idx) & 1));
            port.setStringBit(row, bit_idx,
                              u >= warm + row
                                  ? plan.stringIndex(u - warm - row)
                                  : ChipFeedPlan::noChar);
        }
        const Beat shift = bits - 1;
        const CtlToken ctl =
            u >= shift ? plan.controlAt(u - shift) : CtlToken{};
        port.setControl(ctl.valid && ctl.lambda, ctl.valid && ctl.x);
        const ResToken r = u >= warm + shift
            ? plan.resultAt(u - warm - shift)
            : ResToken{};
        port.setResultIn(r.valid && r.value);

        port.tick();

        if (u >= first_exit && (u - first_exit) % 2 == 0) {
            const auto i =
                static_cast<std::size_t>((u - first_exit) / 2);
            if (i < n) {
                port.collect(i, u + 1);
                ++collected;
            }
        }
    }
    spm_assert(collected == n, "collected ", collected, " of ", n,
               " results");
    return u;
}

/** match()'s port: one scalar chip reading one text. */
struct ChipPort
{
    GateChip &chip;
    std::span<const Symbol> text;
    std::size_t len;
    BitVec &result;
    const std::function<void(std::size_t, const GateChip &)> &observer;

    void setPatternBit(unsigned row, bool bit)
    {
        chip.setPatternBit(row, bit);
    }

    void setStringBit(unsigned row, unsigned bit_idx, std::size_t i)
    {
        chip.setStringBit(row, i != ChipFeedPlan::noChar &&
                                   ((text[i] >> bit_idx) & 1));
    }

    void setControl(bool lambda, bool x) { chip.setControl(lambda, x); }
    void setResultIn(bool r) { chip.setResultIn(r); }
    void tick() { chip.tick(); }

    void collect(std::size_t i, Beat)
    {
        // Warm-up positions may still be X; they are masked to 0 by
        // the problem definition anyway.
        const bool value = chip.resultKnown() && chip.resultOut();
        result.set(i, i >= len - 1 && value);
        if (observer)
            observer(i, chip);
    }
};

/**
 * matchLanes()'s port: the plane engine running @p chip's netlist,
 * lane j reading window j. Only the string rows differ per lane; the
 * clock tick is GateChip::tick's settle followed by
 * TwoPhaseClock::tickBeat's pulse, three settles per beat.
 */
class LanePort
{
  public:
    LanePort(gate::PlaneSim &plane_sim, const GateChip &lane_chip,
             std::span<const std::span<const Symbol>> windows,
             std::size_t pattern_len,
             std::span<GateLevelMatcher::LaneResult *const> lane_results,
             std::vector<std::uint64_t> &str_planes)
        : sim(plane_sim), chip(lane_chip), len(pattern_len),
          results(lane_results), strPlanes(str_planes)
    {
        // Transpose the windows once: plane (i, b) holds bit b of
        // text position i, one lane per window, 0 past its end.
        const BitWidth bits = chip.bits();
        for (const std::span<const Symbol> w : windows)
            maxLen = std::max(maxLen, w.size());
        strPlanes.assign(maxLen * bits, 0);
        for (std::size_t j = 0; j < windows.size(); ++j) {
            const std::span<const Symbol> w = windows[j];
            for (std::size_t i = 0; i < w.size(); ++i)
                for (unsigned b = 0; b < bits; ++b)
                    strPlanes[i * bits + b] |=
                        static_cast<std::uint64_t>((w[i] >> b) & 1)
                        << j;
        }
    }

    /** Characters in the longest window: the pass's text length. */
    std::size_t textLen() const { return maxLen; }

    void setPatternBit(unsigned row, bool bit)
    {
        drive(chip.patternPin(row), bit ? ~0ULL : 0);
    }

    void setStringBit(unsigned row, unsigned bit_idx, std::size_t i)
    {
        drive(chip.stringPin(row),
              i == ChipFeedPlan::noChar
                  ? 0
                  : strPlanes[i * chip.bits() + bit_idx]);
    }

    void setControl(bool lambda, bool x)
    {
        drive(chip.lambdaPin(), lambda ? ~0ULL : 0);
        drive(chip.xPin(), x ? ~0ULL : 0);
    }

    void setResultIn(bool r) { drive(chip.resultInPin(), r ? ~0ULL : 0); }

    void tick()
    {
        sim.settle();
        const gate::NodeId phase = chip.clock().phaseAt(beat++);
        sim.setInput(phase, ~0ULL, 0);
        sim.settle();
        sim.setInput(phase, 0, ~0ULL);
        sim.settle();
    }

    void collect(std::size_t i, Beat beats)
    {
        // A set plane bit implies a known level, so the plane of the
        // result's polarity is ChipPort's known && value per lane.
        const gate::NodeId rn = chip.resultNode();
        const std::uint64_t value =
            chip.resultInverted() ? sim.zeros(rn) : sim.ones(rn);
        for (std::size_t j = 0; j < results.size(); ++j) {
            GateLevelMatcher::LaneResult &r = *results[j];
            if (i >= r.bits.size())
                continue;
            r.bits.set(i, i >= len - 1 && ((value >> j) & 1));
            if (i + 1 == r.bits.size())
                r.beats = beats;
        }
    }

  private:
    void drive(GateChip::Pin pin, std::uint64_t bits)
    {
        const std::uint64_t high = pin.inverted ? ~bits : bits;
        sim.setInput(pin.node, high, ~high);
    }

    gate::PlaneSim &sim;
    const GateChip &chip;
    std::size_t len;
    std::span<GateLevelMatcher::LaneResult *const> results;
    std::vector<std::uint64_t> &strPlanes;
    std::size_t maxLen = 0;
    Beat beat = 0;
};

} // namespace

BitVec
GateLevelMatcher::match(std::span<const Symbol> text,
                        std::span<const Symbol> pattern)
{
    const std::size_t n = text.size();
    const std::size_t len = pattern.size();
    BitVec result(n);
    if (len == 0 || n == 0 || len > n) {
        beatsUsed = 0;
        return result;
    }

    const std::size_t m = cells == 0 ? len : cells;
    BitWidth bits = bitsPerChar;
    if (bits == 0)
        bits = std::max(requiredBits(text), requiredBits(pattern));

    GateChip chip(m, bits);
    if (chipPrep)
        chipPrep(chip);
    transistors = chip.netlist().transistorCount();
    const std::uint64_t evals_before = chip.netlist().evalCount();
    ChipPort port{chip, text, len, result, resultObserver};
    beatsUsed = runFeedSchedule(m, bits, pattern, n, port);
    evalsUsed = chip.netlist().evalCount() - evals_before;
    return result;
}

std::span<GateLevelMatcher::LaneResult>
GateLevelMatcher::matchLanes(std::span<const std::span<const Symbol>> windows,
                             std::span<const Symbol> pattern)
{
    spm_assert(cells > 0 && bitsPerChar > 0,
               "matchLanes needs an explicit chip shape");
    laneOut.resize(windows.size());
    // Windows match() would answer without running the chip stay
    // all-false at 0 beats; the rest ride the lanes.
    liveWindows.clear();
    liveResults.clear();
    for (std::size_t w = 0; w < windows.size(); ++w) {
        laneOut[w].bits.clear();
        laneOut[w].bits.resize(windows[w].size());
        laneOut[w].beats = 0;
        if (!pattern.empty() && pattern.size() <= windows[w].size()) {
            liveWindows.push_back(windows[w]);
            liveResults.push_back(&laneOut[w]);
        }
    }
    if (liveWindows.empty())
        return laneOut;

    if (!lanePlanes) {
        laneChip = std::make_unique<GateChip>(cells, bitsPerChar);
        const gate::Netlist &net = laneChip->netlist();
        laneSnapshot.clear();
        for (gate::NodeId id = 0; id < net.nodeCount(); ++id)
            laneSnapshot.push_back(net.value(id));
        laneForces.clear();
        if (chipPrep) {
            chipPrep(*laneChip);
            for (gate::NodeId id : net.stuckNodes())
                laneForces.push_back({id, ~0ULL, net.value(id)});
        }
        lanePlanes = std::make_unique<gate::PlaneSim>(net);
    }

    constexpr std::size_t laneCount = 64;
    const std::size_t live = liveWindows.size();
    for (std::size_t first = 0; first < live; first += laneCount) {
        const std::size_t lanes = std::min(laneCount, live - first);
        lanePlanes->load(laneSnapshot, laneForces);
        LanePort port(*lanePlanes, *laneChip,
                      std::span(liveWindows).subspan(first, lanes),
                      pattern.size(),
                      std::span(liveResults).subspan(first, lanes),
                      strPlanes);
        runFeedSchedule(cells, bitsPerChar, pattern, port.textLen(),
                        port);
    }
    return laneOut;
}

} // namespace spm::core
