/**
 * @file
 * Property tests for the 64-lane plane engine (gate::PlaneSim): on
 * small random netlists of static gates, pass transistors and static
 * shift stages, every lane must equal its own scalar Netlist::settle
 * run node for node after every settle -- with per-lane stimulus, X
 * clock lanes and per-lane forced (stuck) clock and data lanes. The
 * engine's scheduling rule is pinned through wordEvals(): a pass
 * transistor is evaluated only when a changed lane could change its
 * output -- not behind a gate that is L in every changed lane, nor on
 * a rising gate over a source it already carries -- while a single H,
 * X or forced gate lane that could change it is enough.
 *
 * The order the engine compiles (gate::levelize) is checked against
 * its definition on every standard cell and the full chip: every
 * static gate after its static producers, pass transistors and
 * feedback cycles left to event-driven relaxation.
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
 * not the other). The stimulus changes clocks and data on separate
 * beats. Same @p seed, same netlist.
 */
RandomPorts
buildRandom(Netlist &net, std::uint64_t seed)
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
        const std::uint64_t r = rng.nextBelow(12);
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
lanesMatchScalar(std::uint64_t seed, unsigned steps)
{
    Netlist shape("shape");
    const RandomPorts ports = buildRandom(shape, seed);
    std::vector<NodeId> inputs = ports.data;
    inputs.insert(inputs.end(), ports.clocks.begin(), ports.clocks.end());

    // Start every copy from the settled all-L state.
    std::vector<std::unique_ptr<Netlist>> scalar;
    for (std::size_t j = 0; j < laneCount; ++j) {
        scalar.push_back(std::make_unique<Netlist>("lane"));
        buildRandom(*scalar.back(), seed);
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
        lanesMatchScalar(seed, 40);
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

    /** Word evaluations one setInput + settle costs. */
    std::uint64_t evalsFor(PlaneSim &sim, NodeId node, std::uint64_t one,
                           std::uint64_t zero)
    {
        const std::uint64_t before = sim.wordEvals();
        sim.setInput(node, one, zero);
        sim.settle();
        return sim.wordEvals() - before;
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
    EXPECT_EQ(lone.evalsFor(sim, lone.d, ~0ULL, 0), 0u)
        << "a source change behind a gate low in every lane";
    EXPECT_EQ(sim.zeros(lone.q), ~0ULL) << "every lane held its charge";

    EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~0ULL, 0), 1u) << "gate rises";
    EXPECT_EQ(sim.ones(lone.q), ~0ULL);
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, 0, ~0ULL), 0u)
        << "gate falls in every lane";
    EXPECT_EQ(lone.evalsFor(sim, lone.d, 0, ~0ULL), 0u);
    EXPECT_EQ(sim.ones(lone.q), ~0ULL) << "q kept the H it sampled";
}

TEST(PlaneSim, ConductingPassGateWithUnchangedSourceIsNotEvaluated)
{
    constexpr std::uint64_t lane5 = 1ULL << 5;
    LonePassGate lone;
    PlaneSim sim(lone.net);
    sim.load(std::vector<LogicValue>(3, LogicValue::L));
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~0ULL, 0), 1u)
        << "a loaded snapshot says nothing about what q last copied";
    lone.evalsFor(sim, lone.clk, 0, ~0ULL);
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~0ULL, 0), 0u)
        << "q already equals d: nothing to copy";
    EXPECT_EQ(lone.evalsFor(sim, lone.d, ~0ULL, 0), 1u) << "source changes";
    EXPECT_EQ(sim.ones(lone.q), ~0ULL);
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, 0, ~0ULL), 0u) << "gate falls";
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~0ULL, 0), 0u)
        << "gate rises again on the source it copied";

    // Held while the source changes: the next rise must copy.
    lone.evalsFor(sim, lone.clk, 0, ~0ULL);
    EXPECT_EQ(lone.evalsFor(sim, lone.d, 0, ~0ULL), 0u);
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~0ULL, 0), 1u);
    EXPECT_EQ(sim.zeros(lone.q), ~0ULL);

    // A gate lane turning X makes that lane's charge unknown.
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~lane5, 0), 1u) << "one X lane";
    EXPECT_EQ(sim.zeros(lone.q), ~lane5);
    // Conducting everywhere again after a partial evaluation: re-copy.
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~0ULL, 0), 1u);
    EXPECT_EQ(sim.zeros(lone.q), ~0ULL);

    // A new run from a snapshot where q differs from d: the rise copies.
    sim.load({LogicValue::H, LogicValue::L, LogicValue::L});
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~0ULL, 0), 1u);
    EXPECT_EQ(sim.ones(lone.q), ~0ULL);
}

TEST(PlaneSim, HeldLanesAreSkippedLaneByLane)
{
    constexpr std::uint64_t lane5 = 1ULL << 5;
    constexpr std::uint64_t lane9 = 1ULL << 9;
    LonePassGate lone;
    PlaneSim sim(lone.net);
    sim.load(std::vector<LogicValue>(3, LogicValue::L));
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~0ULL, 0), 1u);
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, lane5, ~lane5), 0u)
        << "the gate falls in every lane it changed";
    EXPECT_EQ(lone.evalsFor(sim, lone.d, lane9, ~lane9), 0u)
        << "the source changed in a held lane only";
    EXPECT_EQ(sim.zeros(lone.q), ~0ULL);
    EXPECT_EQ(lone.evalsFor(sim, lone.d, lane5 | lane9, ~(lane5 | lane9)),
              1u)
        << "the source changed in the conducting lane too";
    EXPECT_EQ(sim.ones(lone.q), lane5);
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, lane5 | lane9, ~(lane5 | lane9)),
              1u)
        << "lane 9 rises over a source it has not copied";
    EXPECT_EQ(sim.ones(lone.q), lane5 | lane9);
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, lane5, ~lane5), 0u);
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, lane5 | lane9, ~(lane5 | lane9)),
              0u)
        << "lane 9 rises again over the source it copied";
    constexpr std::uint64_t lane20 = 1ULL << 20;
    EXPECT_EQ(lone.evalsFor(sim, lone.clk, lane5 | lane9 | lane20,
                            ~(lane5 | lane9 | lane20)),
              0u)
        << "lane 20 copied on the first rise and held through every "
           "evaluation since";
}

TEST(PlaneSim, PassGateWithOneLiveGateLaneIsEvaluated)
{
    constexpr std::uint64_t lane5 = 1ULL << 5;
    const std::vector<LogicValue> low(3, LogicValue::L);

    {
        LonePassGate lone;
        PlaneSim sim(lone.net);
        sim.load(low);
        lone.evalsFor(sim, lone.clk, lane5, ~lane5);
        EXPECT_EQ(lone.evalsFor(sim, lone.d, ~0ULL, 0), 1u) << "one H lane";
        EXPECT_EQ(sim.ones(lone.q), lane5);
        EXPECT_EQ(sim.zeros(lone.q), ~lane5);
    }
    {
        LonePassGate lone;
        PlaneSim sim(lone.net);
        sim.load(low);
        lone.evalsFor(sim, lone.clk, 0, ~lane5);
        EXPECT_EQ(lone.evalsFor(sim, lone.d, ~0ULL, 0), 1u) << "one X lane";
        EXPECT_EQ(sim.ones(lone.q), 0u);
        EXPECT_EQ(sim.zeros(lone.q), ~lane5) << "the X lane lost its charge";
    }
    {
        // The stimulus holds clk L everywhere; lane 5 is stuck at H.
        LonePassGate lone;
        PlaneSim sim(lone.net);
        sim.load(low, {{lone.clk, lane5, LogicValue::H}});
        sim.settle();
        lone.evalsFor(sim, lone.clk, 0, ~0ULL);
        EXPECT_EQ(lone.evalsFor(sim, lone.d, ~0ULL, 0), 1u)
            << "one forced H lane";
        EXPECT_EQ(sim.ones(lone.q), lane5);
    }
    {
        // Forcing the gate low everywhere holds the transistor too.
        LonePassGate lone;
        PlaneSim sim(lone.net);
        sim.load(low, {{lone.clk, ~0ULL, LogicValue::L}});
        sim.settle();
        EXPECT_EQ(lone.evalsFor(sim, lone.clk, ~0ULL, 0), 0u);
        EXPECT_EQ(lone.evalsFor(sim, lone.d, ~0ULL, 0), 0u)
            << "every lane forced low";
        EXPECT_EQ(sim.zeros(lone.q), ~0ULL);
    }
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

/** The static gate driving @p node, or -1 (pass gate, input, none). */
std::int64_t
staticDriver(const Netlist &net, NodeId node)
{
    if (node == invalidNode)
        return -1;
    const std::int32_t drv = net.driverOf(node);
    if (drv < 0 ||
        net.deviceList()[static_cast<std::size_t>(drv)].kind ==
            DeviceKind::PassGate)
        return -1;
    return drv;
}

/**
 * Check gate::levelize on @p net against the definition: every
 * ordered gate comes after the static producers of its inputs, every
 * pass gate and every static gate on a feedback cycle is flagged
 * fallback, and the flags are exactly the devices left out of the
 * order. Returns the number of static gates found on a cycle.
 */
std::size_t
expectSoundLevelization(const Netlist &net)
{
    const std::vector<Device> &devs = net.deviceList();
    const std::size_t nd = devs.size();
    const Levelization lev = levelize(net);
    EXPECT_EQ(lev.isFallback.size(), nd);

    std::vector<std::int64_t> position(nd, -1);
    for (std::size_t i = 0; i < lev.topo.size(); ++i) {
        EXPECT_EQ(position[lev.topo[i]], -1) << "gate ordered twice";
        position[lev.topo[i]] = static_cast<std::int64_t>(i);
    }

    // Static producer edges, for the cycle search below.
    std::vector<std::vector<std::size_t>> producers(nd);
    for (std::size_t d = 0; d < nd; ++d) {
        EXPECT_EQ(lev.isFallback[d] != 0, position[d] < 0) << "device " << d;
        if (devs[d].kind == DeviceKind::PassGate) {
            EXPECT_TRUE(lev.isFallback[d]) << "pass gate " << d;
            continue;
        }
        for (const NodeId in : {devs[d].inA, devs[d].inB}) {
            const std::int64_t p = staticDriver(net, in);
            if (p < 0)
                continue;
            producers[d].push_back(static_cast<std::size_t>(p));
            if (position[d] >= 0) {
                EXPECT_GE(position[static_cast<std::size_t>(p)], 0);
                EXPECT_LT(position[static_cast<std::size_t>(p)],
                          position[d])
                    << "gate " << d << " ordered before its producer " << p;
            }
        }
    }

    // A static gate is on a feedback cycle when it is its own
    // transitive static producer.
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
            EXPECT_TRUE(lev.isFallback[d]) << "cyclic gate " << d;
        }
    }
    return cyclic;
}

std::size_t
fallbackCount(const Levelization &lev)
{
    return static_cast<std::size_t>(
        std::count(lev.isFallback.begin(), lev.isFallback.end(), 1));
}

TEST(Levelize, SoundOnEveryStdcell)
{
    std::size_t cyclic = 0;
    for (const auto &build : stdcellBuilders()) {
        Netlist net("cell");
        build(net);
        cyclic += expectSoundLevelization(net);
    }
    // The static shift register's regeneration loop is a real cycle.
    EXPECT_GT(cyclic, 0u);
}

TEST(Levelize, SoundOnTheFullChip)
{
    core::GateChip chip(8, 2);
    EXPECT_EQ(expectSoundLevelization(chip.netlist()), 0u);
    const Levelization lev = levelize(chip.netlist());
    EXPECT_GT(lev.topo.size(), 0u);
    EXPECT_EQ(fallbackCount(lev),
              chip.netlist().countKind(DeviceKind::PassGate));
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
    const Levelization lev = levelize(net);
    EXPECT_GT(fallbackCount(lev),
              net.countKind(DeviceKind::PassGate));
    EXPECT_GT(lev.topo.size(), 0u);
}

} // namespace
} // namespace spm::gate
