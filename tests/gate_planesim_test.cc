/**
 * @file
 * Property tests for the 64-lane plane engine (gate::PlaneSim): on
 * small random netlists of static gates, pass transistors and static
 * shift stages, and on the full chip with phi1 stuck H in some lanes,
 * every lane must equal its own scalar Netlist::settle run node for
 * node after every settle -- with per-lane stimulus, X clock lanes and
 * per-lane forced (stuck) clock and data lanes. Random netlists without
 * shift stages have acyclic live sets only, so they run the compiled
 * sweep; the others, and the chip when both phases conduct in a lane,
 * run the event-driven relaxation.
 *
 * The schedule is pinned through wordEvals(). On the 8 x 2 chip a
 * rising phi1 evaluates its compiled cone (116 devices) and a rising
 * phi2 its cone (124), while a falling clock and inputs behind held
 * transistors evaluate nothing. In relaxation a pass transistor is
 * evaluated only when a changed lane could change its output -- not
 * behind a gate that is L in every changed lane, nor on a rising gate
 * over an output that already equals its source.
 *
 * The orders the engine compiles (gate::levelize) are checked against
 * their definition on every live set of every standard cell and of the
 * full chip: every ordered device after its producers, held pass
 * transistors and feedback cycles left out.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/gatechip.hh"
#include "gate/netlist.hh"
#include "gate/planesim.hh"
#include "gate/stdcells.hh"
#include "util/rng.hh"

namespace spm::gate
{
namespace
{

constexpr std::size_t laneCount = 64;

/** The external inputs of a random netlist, and its lone devices. */
struct RandomPorts
{
    std::vector<NodeId> data;
    std::vector<NodeId> clocks;
    /** Outputs of pass transistors and gates outside a shift stage. */
    std::vector<NodeId> loose;
};

/**
 * A random race-free netlist, so every settle has one fixpoint
 * whatever the evaluation order. Every device reads nodes built before
 * it; a pass transistor's gate is a clock input, so it is final before
 * a settle starts; the only feedback is the static shift stage's
 * loop, which loads from a data input (a glitch on its source would
 * latch an X in a lane whose load is X, in one evaluation order and
 * not the other). Without @p shift_stages the netlist has no feedback
 * at all, so every live set is acyclic. The stimulus changes clocks
 * and data on separate beats. Same @p seed, same netlist.
 */
RandomPorts
buildRandom(Netlist &net, std::uint64_t seed, bool shift_stages)
{
    Rng rng(seed);
    RandomPorts ports;
    std::vector<NodeId> readable;
    for (int i = 0; i < 4; ++i) {
        const NodeId d = net.addNode("d" + std::to_string(i));
        net.markInput(d);
        ports.data.push_back(d);
        readable.push_back(d);
    }
    for (int i = 0; i < 3; ++i) {
        const NodeId c = net.addNode("clk" + std::to_string(i));
        net.markInput(c);
        ports.clocks.push_back(c);
        readable.push_back(c);
    }
    auto pick = [&rng](const std::vector<NodeId> &from) {
        return from[rng.nextBelow(from.size())];
    };
    constexpr DeviceKind statics[] = {
        DeviceKind::And2, DeviceKind::Nand2, DeviceKind::Or2,
        DeviceKind::Nor2, DeviceKind::Xor2,  DeviceKind::Xnor2};
    for (int i = 0; i < 40; ++i) {
        const std::string name = "n" + std::to_string(i);
        const std::uint64_t r = rng.nextBelow(shift_stages ? 12 : 11);
        if (r == 11) {
            readable.push_back(buildStaticShiftStage(
                net, name, pick(ports.data), pick(ports.clocks),
                pick(ports.clocks)));
            continue;
        }
        const NodeId out = net.addNode(name);
        if (r < 5)
            net.addPassGate(pick(readable), pick(ports.clocks), out);
        else if (r < 7)
            net.addInverter(pick(readable), out);
        else
            net.addGate(statics[rng.nextBelow(std::size(statics))],
                        pick(readable), pick(readable), out);
        readable.push_back(out);
        ports.loose.push_back(out);
    }
    return ports;
}

/** A random per-lane level: mostly H/L, X with probability @p px. */
LogicValue
randomLevel(Rng &rng, double px)
{
    if (rng.nextBool(px))
        return LogicValue::X;
    return rng.nextBool() ? LogicValue::H : LogicValue::L;
}

/** Lane j's level of @p node in the engine. */
LogicValue
laneValue(const PlaneSim &sim, NodeId node, std::size_t j)
{
    if ((sim.ones(node) >> j) & 1)
        return LogicValue::H;
    if ((sim.zeros(node) >> j) & 1)
        return LogicValue::L;
    return LogicValue::X;
}

/**
 * Drive one random netlist as 64 engine lanes and as 64 scalar
 * netlists with the same per-lane stimulus and stuck-at faults, and
 * compare every node of every lane after every settle.
 */
void
lanesMatchScalar(std::uint64_t seed, unsigned steps, bool shift_stages,
                 bool forced_lanes = true)
{
    Netlist shape("shape");
    const RandomPorts ports = buildRandom(shape, seed, shift_stages);
    std::vector<NodeId> inputs = ports.data;
    inputs.insert(inputs.end(), ports.clocks.begin(), ports.clocks.end());

    // Start every copy from the settled all-L state.
    std::vector<std::unique_ptr<Netlist>> scalar;
    for (std::size_t j = 0; j < laneCount; ++j) {
        scalar.push_back(std::make_unique<Netlist>("lane"));
        buildRandom(*scalar.back(), seed, shift_stages);
    }
    for (NodeId in : inputs) {
        shape.setInput(in, LogicValue::L, 0);
        for (auto &net : scalar)
            net->setInput(in, LogicValue::L, 0);
    }
    shape.settle(0);
    for (auto &net : scalar)
        net->settle(0);
    std::vector<LogicValue> snapshot;
    for (NodeId id = 0; id < shape.nodeCount(); ++id)
        snapshot.push_back(shape.value(id));

    // Per-lane stuck-at faults: every clock in some lanes (odd seeds
    // only, so even seeds can conduct in every lane), plus one
    // internal node and one data input.
    Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
    std::vector<NodeId> forced;
    if (seed % 2 == 1)
        forced = ports.clocks;
    forced.push_back(ports.loose[rng.nextBelow(ports.loose.size())]);
    forced.push_back(ports.data[0]);
    if (!forced_lanes)
        forced.clear();
    std::vector<PlaneForce> forces;
    for (NodeId node : forced) {
        const LogicValue level = randomLevel(rng, 0.25);
        const std::uint64_t lanes = rng.next() & rng.next() & rng.next();
        forces.push_back({node, lanes, level});
        for (std::size_t j = 0; j < laneCount; ++j)
            if ((lanes >> j) & 1)
                scalar[j]->forceStuckAt(node, level, 0);
    }

    PlaneSim sim(shape);
    sim.load(snapshot, forces);
    Picoseconds now = 0;
    for (unsigned s = 0; s < steps; ++s) {
        now += 1000;
        const bool clock = s % 2 == 1;
        for (NodeId in : clock ? ports.clocks : ports.data) {
            if (!rng.nextBool(0.5))
                continue;
            // Clocks are often uniform across lanes, as on the chip,
            // where a transistor can conduct in every lane.
            const bool uniform = clock && rng.nextBool(0.6);
            const LogicValue all = randomLevel(rng, 0.05);
            std::uint64_t one = 0;
            std::uint64_t zero = 0;
            for (std::size_t j = 0; j < laneCount; ++j) {
                const LogicValue v =
                    uniform ? all : randomLevel(rng, clock ? 0.05 : 0.1);
                one |= std::uint64_t(v == LogicValue::H) << j;
                zero |= std::uint64_t(v == LogicValue::L) << j;
                scalar[j]->setInput(in, v, now);
            }
            sim.setInput(in, one, zero);
        }
        sim.settle();
        for (std::size_t j = 0; j < laneCount; ++j) {
            scalar[j]->settle(now);
            for (NodeId id = 0; id < shape.nodeCount(); ++id)
                ASSERT_EQ(laneValue(sim, id, j), scalar[j]->value(id))
                    << "seed " << seed << " step " << s << " lane " << j
                    << " node '" << shape.nodeName(id) << "'";
        }
    }
}

TEST(PlaneSim, EveryLaneMatchesScalarSettleOnRandomNetlists)
{
    for (std::uint64_t seed = 1; seed <= 24; ++seed)
        lanesMatchScalar(seed, 40, true);
}

TEST(PlaneSim, EveryLaneMatchesScalarSettleOnAcyclicRandomNetlists)
{
    // Every settle replays a tape, cached or compiled on the spot; the
    // clock-only steps repeat their written sets, so most replays hit.
    for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        lanesMatchScalar(seed, 80, false);
        lanesMatchScalar(seed, 80, false, false);
    }
}

/** Word evaluations one setInput + settle costs. */
std::uint64_t
evalsFor(PlaneSim &sim, NodeId node, std::uint64_t one, std::uint64_t zero)
{
    const std::uint64_t before = sim.wordEvals();
    sim.setInput(node, one, zero);
    sim.settle();
    return sim.wordEvals() - before;
}

/** One pass transistor from input d to node q, gated by input clk. */
struct LonePassGate
{
    LonePassGate() : net("lone")
    {
        d = net.addNode("d");
        clk = net.addNode("clk");
        q = net.addNode("q");
        net.markInput(d);
        net.markInput(clk);
        net.addPassGate(d, clk, q);
    }

    Netlist net;
    NodeId d = invalidNode, clk = invalidNode, q = invalidNode;
};

TEST(PlaneSim, HeldPassGateIsNotEvaluated)
{
    LonePassGate lone;
    PlaneSim sim(lone.net);
    // d = L, clk = L in every lane, q holds L.
    sim.load(std::vector<LogicValue>(3, LogicValue::L));
    EXPECT_EQ(evalsFor(sim, lone.d, ~0ULL, 0), 0u)
        << "a source change behind a gate low in every lane";
    EXPECT_EQ(sim.zeros(lone.q), ~0ULL) << "every lane held its charge";

    EXPECT_EQ(evalsFor(sim, lone.clk, ~0ULL, 0), 1u) << "gate rises";
    EXPECT_EQ(sim.ones(lone.q), ~0ULL);
    EXPECT_EQ(evalsFor(sim, lone.clk, 0, ~0ULL), 0u)
        << "gate falls in every lane";
    EXPECT_EQ(evalsFor(sim, lone.d, 0, ~0ULL), 0u);
    EXPECT_EQ(sim.ones(lone.q), ~0ULL) << "q kept the H it sampled";
}

TEST(PlaneSim, PassGateWithOneLiveGateLaneIsEvaluated)
{
    constexpr std::uint64_t lane5 = 1ULL << 5;
    const std::vector<LogicValue> low(3, LogicValue::L);

    {
        LonePassGate lone;
        PlaneSim sim(lone.net);
        sim.load(low);
        evalsFor(sim, lone.clk, lane5, ~lane5);
        EXPECT_EQ(evalsFor(sim, lone.d, ~0ULL, 0), 1u) << "one H lane";
        EXPECT_EQ(sim.ones(lone.q), lane5);
        EXPECT_EQ(sim.zeros(lone.q), ~lane5);
    }
    {
        LonePassGate lone;
        PlaneSim sim(lone.net);
        sim.load(low);
        evalsFor(sim, lone.clk, 0, ~lane5);
        EXPECT_EQ(evalsFor(sim, lone.d, ~0ULL, 0), 1u) << "one X lane";
        EXPECT_EQ(sim.ones(lone.q), 0u);
        EXPECT_EQ(sim.zeros(lone.q), ~lane5) << "the X lane lost its charge";
    }
    {
        // The stimulus holds clk L everywhere; lane 5 is stuck at H.
        LonePassGate lone;
        PlaneSim sim(lone.net);
        sim.load(low, {{lone.clk, lane5, LogicValue::H}});
        sim.settle();
        evalsFor(sim, lone.clk, 0, ~0ULL);
        EXPECT_EQ(evalsFor(sim, lone.d, ~0ULL, 0), 1u)
            << "one forced H lane";
        EXPECT_EQ(sim.ones(lone.q), lane5);
    }
    {
        // Forcing the gate low everywhere holds the transistor too.
        LonePassGate lone;
        PlaneSim sim(lone.net);
        sim.load(low, {{lone.clk, ~0ULL, LogicValue::L}});
        sim.settle();
        EXPECT_EQ(evalsFor(sim, lone.clk, ~0ULL, 0), 0u);
        EXPECT_EQ(evalsFor(sim, lone.d, ~0ULL, 0), 0u)
            << "every lane forced low";
        EXPECT_EQ(sim.zeros(lone.q), ~0ULL);
    }
}

/**
 * The lone pass transistor beside a NOR latch: the latch is a static
 * feedback cycle, so every live set is cyclic and every settle runs the
 * event-driven relaxation.
 */
struct PassGateBesideLatch : LonePassGate
{
    PassGateBesideLatch()
    {
        const NodeId s = net.addNode("s");
        const NodeId r = net.addNode("r");
        const NodeId qa = net.addNode("qa");
        const NodeId qb = net.addNode("qb");
        net.markInput(s);
        net.markInput(r);
        net.addGate(DeviceKind::Nor2, s, qb, qa);
        net.addGate(DeviceKind::Nor2, r, qa, qb);
    }

    /** d, clk, q, s, r low; the latch holds qa = H. */
    static std::vector<LogicValue> settledLow()
    {
        std::vector<LogicValue> v(7, LogicValue::L);
        v[5] = LogicValue::H;
        return v;
    }
};

TEST(PlaneSim, RelaxationSkipsARisingGateOverItsOwnSource)
{
    constexpr std::uint64_t lane5 = 1ULL << 5;
    constexpr std::uint64_t lane9 = 1ULL << 9;
    PassGateBesideLatch lone;
    ASSERT_TRUE(levelize(lone.net, {}).cyclic);
    PlaneSim sim(lone.net);
    sim.load(PassGateBesideLatch::settledLow());
    EXPECT_EQ(evalsFor(sim, lone.clk, ~0ULL, 0), 0u)
        << "q already equals d: nothing to copy";
    EXPECT_EQ(evalsFor(sim, lone.d, ~0ULL, 0), 1u) << "source changes";
    EXPECT_EQ(sim.ones(lone.q), ~0ULL);
    EXPECT_EQ(evalsFor(sim, lone.clk, 0, ~0ULL), 0u) << "gate falls";
    EXPECT_EQ(evalsFor(sim, lone.clk, ~0ULL, 0), 0u)
        << "gate rises again over the source it copied";

    // Held while the source changes in lane 9 only: a rise elsewhere
    // finds q equal to d, a rise in lane 9 must copy.
    evalsFor(sim, lone.clk, 0, ~0ULL);
    EXPECT_EQ(evalsFor(sim, lone.d, ~lane9, lane9), 0u);
    EXPECT_EQ(evalsFor(sim, lone.clk, lane5, ~lane5), 0u)
        << "lane 5 rises over the source it carries";
    EXPECT_EQ(evalsFor(sim, lone.clk, lane5 | lane9, ~(lane5 | lane9)), 1u)
        << "lane 9 rises over a source it has not copied";
    EXPECT_EQ(sim.zeros(lone.q), lane9);

    // A gate lane turning X makes that lane's charge unknown.
    EXPECT_EQ(evalsFor(sim, lone.clk, ~lane5, 0), 1u) << "one X lane";
    EXPECT_EQ(sim.ones(lone.q), ~(lane5 | lane9));
    EXPECT_EQ(sim.zeros(lone.q), lane9);
    EXPECT_EQ(evalsFor(sim, lone.clk, ~0ULL, 0), 1u) << "the X lane re-copies";
    EXPECT_EQ(sim.ones(lone.q), ~lane9);
}

TEST(PlaneSim, AcyclicSettleEvaluatesTheRisingGatesCone)
{
    LonePassGate lone;
    PlaneSim sim(lone.net);
    sim.load(std::vector<LogicValue>(3, LogicValue::L));
    EXPECT_EQ(evalsFor(sim, lone.clk, ~0ULL, 0), 1u)
        << "the cone is swept whether or not q already equals d";
    EXPECT_EQ(evalsFor(sim, lone.clk, 0, ~0ULL), 0u);
    EXPECT_EQ(evalsFor(sim, lone.clk, ~0ULL, 0), 1u);
    EXPECT_EQ(sim.zeros(lone.q), ~0ULL);
}

/** @p net's node values, one per node. */
std::vector<LogicValue>
snapshotOf(const Netlist &net)
{
    std::vector<LogicValue> values;
    for (NodeId id = 0; id < net.nodeCount(); ++id)
        values.push_back(net.value(id));
    return values;
}

/** The chip's primary inputs other than its two clocks. */
std::vector<NodeId>
dataInputs(const core::GateChip &chip)
{
    const Netlist &net = chip.netlist();
    std::vector<NodeId> inputs;
    for (NodeId id = 0; id < net.nodeCount(); ++id)
        if (net.isInputNode(id) && id != chip.clock().phi1() &&
            id != chip.clock().phi2())
            inputs.push_back(id);
    return inputs;
}

/** A random per-lane level on @p rng: one plane pair. */
std::pair<std::uint64_t, std::uint64_t>
randomLanes(Rng &rng, double px)
{
    std::uint64_t one = 0;
    std::uint64_t zero = 0;
    for (std::size_t j = 0; j < laneCount; ++j) {
        const LogicValue v = randomLevel(rng, px);
        one |= std::uint64_t(v == LogicValue::H) << j;
        zero |= std::uint64_t(v == LogicValue::L) << j;
    }
    return {one, zero};
}

TEST(PlaneSim, ChipClockEdgesEvaluateTheCompiledCones)
{
    core::GateChip chip(8, 2);
    const NodeId phi1 = chip.clock().phi1();
    const NodeId phi2 = chip.clock().phi2();
    PlaneSim sim(chip.netlist());
    sim.load(snapshotOf(chip.netlist()));
    // The first beat compiles one tape per rising clock; the other 99
    // replay them, evaluating the same cones.
    for (int beat = 0; beat < 100; ++beat) {
        EXPECT_EQ(evalsFor(sim, phi1, ~0ULL, 0), 116u) << "phi1 rises";
        EXPECT_EQ(evalsFor(sim, phi1, 0, ~0ULL), 0u) << "phi1 falls";
        EXPECT_EQ(evalsFor(sim, phi2, ~0ULL, 0), 124u) << "phi2 rises";
        EXPECT_EQ(evalsFor(sim, phi2, 0, ~0ULL), 0u) << "phi2 falls";
        ASSERT_EQ(sim.tapeCount(), 2u) << "beat " << beat;
    }
}

TEST(PlaneSim, ChipInputsBehindHeldTransistorsEvaluateNothing)
{
    core::GateChip chip(8, 2);
    PlaneSim sim(chip.netlist());
    sim.load(snapshotOf(chip.netlist()));
    Rng rng(0x5EED);
    const std::uint64_t before = sim.wordEvals();
    for (int round = 0; round < 8; ++round) {
        for (const NodeId in : dataInputs(chip)) {
            const auto [one, zero] = randomLanes(rng, 0.1);
            sim.setInput(in, one, zero);
        }
        sim.settle();
    }
    EXPECT_EQ(sim.wordEvals() - before, 0u) << "both clocks are low";
    EXPECT_EQ(sim.tapeCount(), 0u) << "writes no device reads key no tape";
}

/**
 * Run 64 lanes of the 8 x 2 chip and 64 scalar chips side by side for
 * @p beats beats of random per-lane inputs, each lane with its share
 * of @p forces, and compare every node of every lane after every
 * settle: the inputs with both clocks low, then one phase's rise and
 * fall. Returns the engine for the caller's effort checks.
 */
std::unique_ptr<PlaneSim>
chipLanesMatchScalar(const core::GateChip &shape,
                     const std::vector<PlaneForce> &forces, Beat beats,
                     std::uint64_t seed)
{
    const NodeId phi1 = shape.clock().phi1();
    const NodeId phi2 = shape.clock().phi2();
    std::vector<std::unique_ptr<core::GateChip>> scalar;
    for (std::size_t j = 0; j < laneCount; ++j) {
        scalar.push_back(std::make_unique<core::GateChip>(
            shape.cellCount(), shape.bits()));
        for (const PlaneForce &f : forces)
            if ((f.lanes >> j) & 1)
                scalar[j]->netlist().forceStuckAt(f.node, f.level, 0);
    }
    auto sim = std::make_unique<PlaneSim>(shape.netlist());
    sim->load(snapshotOf(shape.netlist()), forces);

    const std::vector<NodeId> inputs = dataInputs(shape);
    Rng rng(seed);
    Picoseconds now = 0;
    auto settleAndCompare = [&](Beat beat, const char *step) {
        sim->settle();
        for (std::size_t j = 0; j < laneCount; ++j) {
            Netlist &net = scalar[j]->netlist();
            net.settle(now);
            for (NodeId id = 0; id < net.nodeCount(); ++id)
                ASSERT_EQ(laneValue(*sim, id, j), net.value(id))
                    << "beat " << beat << " " << step << " lane " << j
                    << " node '" << net.nodeName(id) << "'";
        }
    };
    auto drive = [&](NodeId node, std::uint64_t one, std::uint64_t zero) {
        sim->setInput(node, one, zero);
        for (std::size_t j = 0; j < laneCount; ++j)
            scalar[j]->netlist().setInput(
                node,
                (one >> j) & 1    ? LogicValue::H
                : (zero >> j) & 1 ? LogicValue::L
                                  : LogicValue::X,
                now);
    };
    for (Beat beat = 0; beat < beats; ++beat) {
        now += 1000;
        // New inputs while both clocks are low, then one phase pulses.
        for (const NodeId in : inputs) {
            const auto [one, zero] = randomLanes(rng, 0.05);
            drive(in, one, zero);
        }
        settleAndCompare(beat, "inputs");
        const NodeId phase = beat % 2 == 0 ? phi1 : phi2;
        drive(phase, ~0ULL, 0);
        settleAndCompare(beat, "rise");
        drive(phase, 0, ~0ULL);
        settleAndCompare(beat, "fall");
    }
    return sim;
}

TEST(PlaneSim, ChipLanesWithPhi1StuckHighMatchScalarSettle)
{
    // Lanes 3, 40 and 63 have phi1 stuck H and lane 17 stuck X, so
    // whenever phi2 rises both phases conduct there: the live set is
    // cyclic and the engine relaxes it.
    constexpr std::uint64_t stuckHigh =
        (1ULL << 3) | (1ULL << 40) | (1ULL << 63);
    constexpr std::uint64_t stuckX = 1ULL << 17;
    const core::GateChip shape(8, 2);
    const NodeId phi1 = shape.clock().phi1();
    std::vector<std::uint8_t> both(shape.netlist().nodeCount(), 0);
    both[phi1] = 1;
    both[shape.clock().phi2()] = 1;
    ASSERT_TRUE(levelize(shape.netlist(), both).cyclic);
    chipLanesMatchScalar(shape,
                         {{phi1, stuckHigh, LogicValue::H},
                          {phi1, stuckX, LogicValue::X}},
                         24, 0xC10C);
}

TEST(PlaneSim, ChipTapeReplaysMatchScalarSettle)
{
    // Clean clocks: every settle is a tape. The rises replay the two
    // tapes their first beats compiled, and the inputs, behind held
    // transistors, are dropped without one. Lanes then pin internal
    // nodes H, L and X, which the forced store must keep.
    const core::GateChip shape(8, 2);
    EXPECT_LE(chipLanesMatchScalar(shape, {}, 24, 0x7A9E)->tapeCount(), 2u);
    const std::vector<PlaneForce> forces = {
        {40, 0x00000000FFFF0000ULL, LogicValue::H},
        {97, 0x0F0F0F0F00000000ULL, LogicValue::L},
        {151, 0x8000000000000001ULL, LogicValue::X},
        {shape.stringPin(0).node, 0x00F0000000000000ULL, LogicValue::H}};
    // The forced nodes' first settle compiles a third tape.
    EXPECT_LE(chipLanesMatchScalar(shape, forces, 24, 0x7A9F)->tapeCount(),
              3u);
}

/**
 * One clock's cone mixing kinds across levels: d passes to m, an
 * inverter makes n, n passes to p, an inverter makes r, NAND(r, m)
 * makes s, and s passes to q -- three pass transistors on clk at
 * three levels, inverters between them. A run per kind without the
 * level rule would evaluate an inverter or a later transistor before
 * the transistor feeding it.
 */
TEST(PlaneSim, TapeKeepsEachWriteBeforeItsReads)
{
    Netlist net("levels");
    const NodeId d = net.addNode("d");
    const NodeId clk = net.addNode("clk");
    net.markInput(d);
    net.markInput(clk);
    std::vector<NodeId> n;
    for (const char *name : {"m", "n", "p", "r", "s", "q"})
        n.push_back(net.addNode(name));
    net.addPassGate(d, clk, n[0]);
    net.addInverter(n[0], n[1]);
    net.addPassGate(n[1], clk, n[2]);
    net.addInverter(n[2], n[3]);
    net.addGate(DeviceKind::Nand2, n[3], n[0], n[4]);
    net.addPassGate(n[4], clk, n[5]);

    std::vector<std::unique_ptr<Netlist>> scalar;
    for (std::size_t j = 0; j < laneCount; ++j) {
        scalar.push_back(std::make_unique<Netlist>(net));
        scalar[j]->setInput(d, LogicValue::L, 0);
        scalar[j]->setInput(clk, LogicValue::L, 0);
        scalar[j]->settle(0);
    }
    PlaneSim sim(net);
    sim.load(snapshotOf(*scalar[0]));
    Rng rng(0x1E7E);
    for (int step = 0; step < 40; ++step) {
        // Data while the clock is low, then the clock pulses: high in
        // some lanes, X in a few, low (holding q) in the rest.
        const NodeId in = step % 2 == 0 ? d : clk;
        const auto [one, zero] = in == clk && step % 4 == 1
            ? std::pair<std::uint64_t, std::uint64_t>{~0ULL, 0}
            : randomLanes(rng, 0.1);
        sim.setInput(in, one, zero);
        sim.settle();
        for (std::size_t j = 0; j < laneCount; ++j) {
            scalar[j]->setInput(in,
                                (one >> j) & 1    ? LogicValue::H
                                : (zero >> j) & 1 ? LogicValue::L
                                                  : LogicValue::X,
                                step);
            scalar[j]->settle(step);
            for (NodeId id = 0; id < net.nodeCount(); ++id)
                ASSERT_EQ(laneValue(sim, id, j), scalar[j]->value(id))
                    << "step " << step << " lane " << j << " node '"
                    << net.nodeName(id) << "'";
        }
    }
}

TEST(PlaneSim, TapeCacheStaysBoundedAcrossForceSets)
{
    // Each load records its forced nodes as writes, so each new force
    // set keys a new tape on its first settle; 1,000 of them must not
    // grow the cache past its bound.
    const core::GateChip chip(8, 2);
    const std::vector<LogicValue> snapshot = snapshotOf(chip.netlist());
    const NodeId nodes = static_cast<NodeId>(chip.netlist().nodeCount());
    PlaneSim sim(chip.netlist());
    std::size_t most = 0;
    for (std::uint64_t i = 0; i < 1000; ++i) {
        sim.load(snapshot,
                 {{static_cast<NodeId>(i % nodes), 1ULL << (i % 64),
                   LogicValue::H},
                  {static_cast<NodeId>((7 * i + 3) % nodes), 2ULL << (i % 63),
                   LogicValue::L}});
        sim.settle();
        sim.setInput(chip.clock().phi1(), ~0ULL, 0);
        sim.settle();
        ASSERT_LE(sim.tapeCount(), PlaneSim::tapeBound) << "load " << i;
        most = std::max(most, sim.tapeCount());
    }
    EXPECT_EQ(most, PlaneSim::tapeBound) << "the bound was never reached";
}

/** Every standard cell, each built alone between marked port nodes. */
std::vector<std::function<void(Netlist &)>>
stdcellBuilders()
{
    std::vector<std::function<void(Netlist &)>> cells;
    cells.push_back([](Netlist &net) {
        const NodeId in = net.addNode("in");
        const NodeId clk = net.addNode("clk");
        net.markInput(in);
        net.markInput(clk);
        buildShiftStage(net, "sr", in, clk);
    });
    cells.push_back([](Netlist &net) {
        const NodeId in = net.addNode("in");
        const NodeId clk = net.addNode("clk");
        const NodeId shift = net.addNode("shift");
        for (NodeId n : {in, clk, shift})
            net.markInput(n);
        buildStaticShiftStage(net, "ssr", in, clk, shift);
    });
    for (const bool positive : {true, false}) {
        cells.push_back([positive](Netlist &net) {
            ComparatorPorts ports;
            ports.pIn = net.addNode("pIn");
            ports.sIn = net.addNode("sIn");
            ports.dIn = net.addNode("dIn");
            ports.pOut = net.addNode("pOut");
            ports.sOut = net.addNode("sOut");
            ports.dOut = net.addNode("dOut");
            const NodeId clk = net.addNode("clk");
            for (NodeId n : {ports.pIn, ports.sIn, ports.dIn, clk})
                net.markInput(n);
            buildComparator(net, "cmp", ports, clk, positive);
        });
        cells.push_back([positive](Netlist &net) {
            AccumulatorPorts ports;
            ports.lambdaIn = net.addNode("lIn");
            ports.xIn = net.addNode("xIn");
            ports.dIn = net.addNode("dIn");
            ports.rIn = net.addNode("rIn");
            ports.lambdaOut = net.addNode("lOut");
            ports.xOut = net.addNode("xOut");
            ports.rOut = net.addNode("rOut");
            const NodeId clkA = net.addNode("clkA");
            const NodeId clkB = net.addNode("clkB");
            for (NodeId n : {ports.lambdaIn, ports.xIn, ports.dIn,
                             ports.rIn, clkA, clkB})
                net.markInput(n);
            buildAccumulator(net, "acc", ports, clkA, clkB, positive);
        });
    }
    return cells;
}

/** Whether @p live lets device @p d into the order. */
bool
covered(const Device &d, const std::vector<std::uint8_t> &live)
{
    return d.kind != DeviceKind::PassGate ||
           (!live.empty() && live[d.ctl] != 0);
}

/**
 * The covered device driving @p node, or -1 (held pass gate, input,
 * none).
 */
std::int64_t
coveredDriver(const Netlist &net, NodeId node,
              const std::vector<std::uint8_t> &live)
{
    if (node == invalidNode)
        return -1;
    const std::int32_t drv = net.driverOf(node);
    if (drv < 0 ||
        !covered(net.deviceList()[static_cast<std::size_t>(drv)], live))
        return -1;
    return drv;
}

/**
 * Check gate::levelize on @p net for the live set @p live against the
 * definition: every ordered device comes after the covered producers
 * of its inputs, every held pass gate and every covered device on a
 * feedback cycle is left out, the flags are exactly the devices left
 * out of the order, and the order is flagged cyclic exactly when some
 * covered device is left out. Returns the number of devices found on
 * a cycle.
 */
std::size_t
expectSoundLevelization(const Netlist &net,
                        const std::vector<std::uint8_t> &live)
{
    const std::vector<Device> &devs = net.deviceList();
    const std::size_t nd = devs.size();
    const Levelization lev = levelize(net, live);
    EXPECT_EQ(lev.isFallback.size(), nd);

    std::vector<std::int64_t> position(nd, -1);
    for (std::size_t i = 0; i < lev.topo.size(); ++i) {
        EXPECT_EQ(position[lev.topo[i]], -1) << "device ordered twice";
        position[lev.topo[i]] = static_cast<std::int64_t>(i);
    }

    // Covered producer edges, for the cycle search below.
    std::vector<std::vector<std::size_t>> producers(nd);
    bool leftOut = false;
    for (std::size_t d = 0; d < nd; ++d) {
        EXPECT_EQ(lev.isFallback[d] != 0, position[d] < 0) << "device " << d;
        if (!covered(devs[d], live)) {
            EXPECT_TRUE(lev.isFallback[d]) << "held pass gate " << d;
            continue;
        }
        leftOut = leftOut || position[d] < 0;
        for (const NodeId in : {devs[d].inA, devs[d].inB, devs[d].ctl}) {
            const std::int64_t p = coveredDriver(net, in, live);
            if (p < 0)
                continue;
            producers[d].push_back(static_cast<std::size_t>(p));
            if (position[d] >= 0) {
                EXPECT_GE(position[static_cast<std::size_t>(p)], 0);
                EXPECT_LT(position[static_cast<std::size_t>(p)],
                          position[d])
                    << "device " << d << " ordered before its producer "
                    << p;
            }
        }
    }
    EXPECT_EQ(lev.cyclic, leftOut);

    // A device is on a feedback cycle when it is its own transitive
    // covered producer.
    std::size_t cyclic = 0;
    for (std::size_t d = 0; d < nd; ++d) {
        std::vector<std::uint8_t> seen(nd, 0);
        std::vector<std::size_t> stack(producers[d]);
        bool onCycle = false;
        while (!stack.empty() && !onCycle) {
            const std::size_t p = stack.back();
            stack.pop_back();
            onCycle = p == d;
            if (seen[p])
                continue;
            seen[p] = 1;
            stack.insert(stack.end(), producers[p].begin(),
                         producers[p].end());
        }
        if (onCycle) {
            ++cyclic;
            EXPECT_TRUE(lev.isFallback[d]) << "cyclic device " << d;
        }
    }
    return cyclic;
}

/** The distinct pass-gate gate nodes of @p net. */
std::vector<NodeId>
gateNodes(const Netlist &net)
{
    std::vector<NodeId> gates;
    for (const Device &d : net.deviceList())
        if (d.kind == DeviceKind::PassGate &&
            std::find(gates.begin(), gates.end(), d.ctl) == gates.end())
            gates.push_back(d.ctl);
    return gates;
}

/** One flag per node of @p net, set on @p nodes. */
std::vector<std::uint8_t>
liveFlags(const Netlist &net, const std::vector<NodeId> &nodes)
{
    std::vector<std::uint8_t> live(net.nodeCount(), 0);
    for (const NodeId n : nodes)
        live[n] = 1;
    return live;
}

std::size_t
fallbackCount(const Levelization &lev)
{
    return static_cast<std::size_t>(
        std::count(lev.isFallback.begin(), lev.isFallback.end(), 1));
}

TEST(Levelize, SoundOnEveryLiveSetOfEveryStdcell)
{
    std::size_t cyclic = 0;
    for (const auto &build : stdcellBuilders()) {
        Netlist net("cell");
        build(net);
        const std::vector<NodeId> gates = gateNodes(net);
        ASSERT_LT(gates.size(), 8u);
        for (std::uint32_t subset = 0; subset < (1u << gates.size());
             ++subset) {
            std::vector<NodeId> live;
            for (std::size_t g = 0; g < gates.size(); ++g)
                if ((subset >> g) & 1)
                    live.push_back(gates[g]);
            cyclic += expectSoundLevelization(net, liveFlags(net, live));
        }
    }
    // The static shift register's regeneration loop is a real cycle.
    EXPECT_GT(cyclic, 0u);
}

TEST(Levelize, SoundOnEveryLiveSetOfTheFullChip)
{
    core::GateChip chip(8, 2);
    const Netlist &net = chip.netlist();
    const NodeId phi1 = chip.clock().phi1();
    const NodeId phi2 = chip.clock().phi2();
    EXPECT_EQ(gateNodes(net).size(), 2u)
        << "the chip's only pass-gate gates are the clocks";
    const std::size_t passGates = net.countKind(DeviceKind::PassGate);
    const std::size_t statics = net.deviceCount() - passGates;

    // The three clean-clock live sets are acyclic: the order covers
    // every static gate and every transistor of the live phase.
    const std::vector<std::vector<NodeId>> clean = {{}, {phi1}, {phi2}};
    for (const std::vector<NodeId> &live : clean) {
        const std::vector<std::uint8_t> flags = liveFlags(net, live);
        EXPECT_EQ(expectSoundLevelization(net, flags), 0u);
        const Levelization lev = levelize(net, flags);
        EXPECT_FALSE(lev.cyclic);
        std::size_t livePass = 0;
        for (const Device &d : net.deviceList())
            livePass += d.kind == DeviceKind::PassGate && flags[d.ctl];
        EXPECT_EQ(lev.topo.size(), statics + livePass);
        EXPECT_EQ(fallbackCount(lev), passGates - livePass);
    }
    EXPECT_EQ(fallbackCount(levelize(net, {})), passGates);

    // Both phases conducting at once closes loops through them.
    EXPECT_GT(expectSoundLevelization(net, liveFlags(net, {phi1, phi2})),
              0u);
    EXPECT_TRUE(levelize(net, liveFlags(net, {phi1, phi2})).cyclic);
}

TEST(Levelize, StaticShiftStageFeedbackFallsBack)
{
    // The static stage's regeneration loop is a static-gate cycle:
    // it must be detected and left to event-driven relaxation, while
    // the gates outside it stay ordered.
    Netlist net("static");
    const NodeId in = net.addNode("in");
    const NodeId clk = net.addNode("clk");
    const NodeId shift = net.addNode("shift");
    net.markInput(in);
    net.markInput(clk);
    net.markInput(shift);
    buildStaticShiftStage(net, "ssr", in, clk, shift);
    const Levelization lev = levelize(net, {});
    EXPECT_TRUE(lev.cyclic);
    EXPECT_GT(fallbackCount(lev),
              net.countKind(DeviceKind::PassGate));
    EXPECT_GT(lev.topo.size(), 0u);
}

} // namespace
} // namespace spm::gate
