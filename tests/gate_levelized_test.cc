/**
 * @file
 * Property tests for the levelized gate-sim fast path: the shared
 * levelization (gate::levelize) must order every static gate after
 * its static producers and leave pass gates and feedback cycles to
 * the fallback, and the compiled flat pass must be observably
 * identical -- node for node, after every settle -- to the
 * event-driven Netlist::settle, on every standard cell, under
 * stuck-at faults and charge decay, and on the full
 * comparator/accumulator chip.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "core/gatechip.hh"
#include "core/reference.hh"
#include "gate/levelized.hh"
#include "gate/netlist.hh"
#include "gate/stdcells.hh"
#include "tests/helpers.hh"
#include "util/rng.hh"

namespace spm::gate
{
namespace
{

/** Assert every node of @p a equals the same node of @p b. */
void
expectSameNodes(const Netlist &a, const Netlist &b, const char *when)
{
    ASSERT_EQ(a.nodeCount(), b.nodeCount());
    for (NodeId id = 0; id < a.nodeCount(); ++id)
        ASSERT_EQ(a.value(id), b.value(id))
            << when << ": node '" << a.nodeName(id) << "' diverged";
}

/**
 * Build the same circuit twice via @p build (which returns the
 * external input nodes), attach the fast path to one copy, drive both
 * with @p steps random input vectors, and compare all nodes after
 * every settle.
 */
void
lockstepCheck(const std::function<std::vector<NodeId>(Netlist &)> &build,
              unsigned steps, std::uint64_t seed)
{
    Netlist plain("plain");
    Netlist fast("fast");
    const std::vector<NodeId> in_plain = build(plain);
    const std::vector<NodeId> in_fast = build(fast);
    ASSERT_EQ(in_plain.size(), in_fast.size());

    LevelizedNetlist accel(fast);
    accel.attach();

    Rng rng(seed);
    Picoseconds now = 0;
    for (unsigned s = 0; s < steps; ++s) {
        now += 1000;
        for (std::size_t i = 0; i < in_plain.size(); ++i) {
            const LogicValue v = rng.nextBool() ? LogicValue::H
                                                : LogicValue::L;
            plain.setInput(in_plain[i], v, now);
            fast.setInput(in_fast[i], v, now);
        }
        plain.settle(now);
        fast.settle(now);
        expectSameNodes(plain, fast, "after settle");
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
 * fallback, the flags are exactly the devices left out of the order,
 * and each node's fallback fanout lists exactly its fallback readers.
 * Returns the number of static gates found on a cycle.
 */
std::size_t
expectSoundLevelization(const Netlist &net)
{
    const std::vector<Device> &devs = net.deviceList();
    const std::size_t nd = devs.size();
    const Levelization lev = levelize(net);
    EXPECT_EQ(lev.isFallback.size(), nd);
    EXPECT_EQ(lev.fallbackFanout.size(), net.nodeCount());

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

    // Fallback fanout: each node's fallback readers, in device order.
    std::vector<std::vector<std::uint32_t>> want(net.nodeCount());
    for (std::uint32_t d = 0; d < nd; ++d) {
        if (!lev.isFallback[d])
            continue;
        const Device &dev = devs[d];
        want[dev.inA].push_back(d);
        if (dev.inB != invalidNode && dev.inB != dev.inA)
            want[dev.inB].push_back(d);
        if (dev.ctl != invalidNode)
            want[dev.ctl].push_back(d);
    }
    for (NodeId node = 0; node < net.nodeCount(); ++node) {
        std::vector<std::uint32_t> got = lev.fallbackFanout[node];
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want[node]) << "node '" << net.nodeName(node) << "'";
    }
    return cyclic;
}

TEST(Levelized, SharedLevelizationIsSoundOnEveryStdcell)
{
    std::size_t cyclic = 0;
    for (const auto &build : stdcellBuilders()) {
        Netlist net("cell");
        build(net);
        cyclic += expectSoundLevelization(net);
        const Levelization lev = levelize(net);
        const LevelizedNetlist accel(net);
        EXPECT_EQ(accel.fallbackCount(),
                  static_cast<std::size_t>(std::count(
                      lev.isFallback.begin(), lev.isFallback.end(), 1)));
    }
    // The static shift register's regeneration loop is a real cycle.
    EXPECT_GT(cyclic, 0u);
}

TEST(Levelized, SharedLevelizationIsSoundOnTheFullChip)
{
    core::GateChip chip(8, 2);
    EXPECT_EQ(expectSoundLevelization(chip.netlist()), 0u);
    const Levelization lev = levelize(chip.netlist());
    EXPECT_GT(lev.topo.size(), 0u);
    EXPECT_EQ(static_cast<std::size_t>(std::count(lev.isFallback.begin(),
                                                  lev.isFallback.end(), 1)),
              chip.netlist().countKind(DeviceKind::PassGate));
}

TEST(Levelized, DynamicShiftStageMatchesEventDriven)
{
    lockstepCheck(
        [](Netlist &net) {
            const NodeId in = net.addNode("in");
            const NodeId clk = net.addNode("clk");
            net.markInput(in);
            net.markInput(clk);
            buildShiftStage(net, "sr", in, clk);
            return std::vector<NodeId>{in, clk};
        },
        200, 0x51A6E);
}

TEST(Levelized, StaticShiftStageFeedbackFallsBack)
{
    // The static stage's regeneration loop is a static-gate cycle:
    // it must be detected and left to the event-driven fallback.
    Netlist net("static");
    const NodeId in = net.addNode("in");
    const NodeId clk = net.addNode("clk");
    const NodeId shift = net.addNode("shift");
    net.markInput(in);
    net.markInput(clk);
    net.markInput(shift);
    buildStaticShiftStage(net, "ssr", in, clk, shift);
    LevelizedNetlist accel(net);
    EXPECT_GT(accel.fallbackCount(), 0u);
    EXPECT_GT(accel.orderedCount(), 0u);

    lockstepCheck(
        [](Netlist &n) {
            const NodeId i = n.addNode("in");
            const NodeId c = n.addNode("clk");
            const NodeId s = n.addNode("shift");
            n.markInput(i);
            n.markInput(c);
            n.markInput(s);
            buildStaticShiftStage(n, "ssr", i, c, s);
            return std::vector<NodeId>{i, c, s};
        },
        300, 0x57A71C);
}

TEST(Levelized, ComparatorAndAccumulatorCellsMatch)
{
    for (const bool positive : {true, false}) {
        lockstepCheck(
            [positive](Netlist &net) {
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
                return std::vector<NodeId>{ports.pIn, ports.sIn,
                                           ports.dIn, clk};
            },
            250, positive ? 0xC0: 0xC1);

        // The accumulator's master-slave loop is only race-free under
        // the two-phase discipline (phases never overlap), so its
        // clocks are sequenced properly while the data inputs are
        // randomized per beat.
        auto build = [positive](Netlist &net) {
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
            return std::vector<NodeId>{ports.lambdaIn, ports.xIn,
                                       ports.dIn, ports.rIn, clkA,
                                       clkB};
        };
        Netlist plain("plain");
        Netlist fast("fast");
        const auto in_p = build(plain);
        const auto in_f = build(fast);
        LevelizedNetlist accel(fast);
        accel.attach();

        Rng rng(positive ? 0xAC0 : 0xAC1);
        Picoseconds now = 0;
        for (unsigned beat = 0; beat < 150; ++beat) {
            LogicValue data[4];
            for (LogicValue &v : data)
                v = rng.nextBool() ? LogicValue::H : LogicValue::L;
            // One beat: data settles, phi-A pulse, then phi-B pulse.
            const LogicValue seq[4][2] = {{LogicValue::H, LogicValue::L},
                                          {LogicValue::L, LogicValue::L},
                                          {LogicValue::L, LogicValue::H},
                                          {LogicValue::L, LogicValue::L}};
            for (const auto &phase : seq) {
                now += 250;
                for (std::size_t i = 0; i < 4; ++i) {
                    plain.setInput(in_p[i], data[i], now);
                    fast.setInput(in_f[i], data[i], now);
                }
                plain.setInput(in_p[4], phase[0], now);
                fast.setInput(in_f[4], phase[0], now);
                plain.setInput(in_p[5], phase[1], now);
                fast.setInput(in_f[5], phase[1], now);
                plain.settle(now);
                fast.settle(now);
                expectSameNodes(plain, fast, "accumulator phase");
            }
        }
    }
}

TEST(Levelized, StuckAtFaultsPropagateIdentically)
{
    Netlist plain("plain");
    Netlist fast("fast");
    auto build = [](Netlist &net) {
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
        buildComparator(net, "cmp", ports, clk, true);
        return std::vector<NodeId>{ports.pIn, ports.sIn, ports.dIn,
                                   clk};
    };
    const auto in_p = build(plain);
    const auto in_f = build(fast);
    LevelizedNetlist accel(fast);
    accel.attach();

    const NodeId victim_p = plain.findNode("cmp.eq");
    const NodeId victim_f = fast.findNode("cmp.eq");
    ASSERT_NE(victim_p, invalidNode);

    Rng rng(0xFA17);
    Picoseconds now = 0;
    for (unsigned s = 0; s < 120; ++s) {
        now += 1000;
        if (s == 40) {
            plain.forceStuckAt(victim_p, LogicValue::L, now);
            fast.forceStuckAt(victim_f, LogicValue::L, now);
        }
        if (s == 80) {
            plain.clearStuckAt(victim_p);
            fast.clearStuckAt(victim_f);
        }
        for (std::size_t i = 0; i < in_p.size(); ++i) {
            const LogicValue v = rng.nextBool() ? LogicValue::H
                                                : LogicValue::L;
            plain.setInput(in_p[i], v, now);
            fast.setInput(in_f[i], v, now);
        }
        plain.settle(now);
        fast.settle(now);
        expectSameNodes(plain, fast, "under stuck-at");
    }
}

TEST(Levelized, ChargeDecayIdentical)
{
    auto build = [](Netlist &net) {
        const NodeId in = net.addNode("in");
        const NodeId clk = net.addNode("clk");
        net.markInput(in);
        net.markInput(clk);
        buildShiftStage(net, "sr", in, clk);
        return std::vector<NodeId>{in, clk};
    };
    Netlist plain("plain");
    Netlist fast("fast");
    const auto in_p = build(plain);
    const auto in_f = build(fast);
    LevelizedNetlist accel(fast);
    accel.attach();

    // Latch a value, drop the clock, then decay past retention.
    Picoseconds now = 1000;
    for (Netlist *net : {&plain, &fast}) {
        const auto &in = net == &plain ? in_p : in_f;
        net->setInput(in[0], LogicValue::H, now);
        net->setInput(in[1], LogicValue::H, now);
        net->settle(now);
        net->setInput(in[1], LogicValue::L, now + 100);
        net->settle(now + 100);
    }
    expectSameNodes(plain, fast, "after latch");

    const Picoseconds later = now + 100 + 2 * defaultRetentionPs;
    const std::size_t d_p = plain.decayCharge(later);
    const std::size_t d_f = fast.decayCharge(later);
    EXPECT_EQ(d_p, d_f);
    EXPECT_GT(d_p, 0u);
    expectSameNodes(plain, fast, "after decay");
}

TEST(Levelized, FullChipLockstep)
{
    // Two 3-cell, 2-bit chips fed the identical pseudo-random pin
    // stream; every node compared every beat. This is the chip the
    // service's gate rung builds, warm-up X states and all.
    core::GateChip plain(3, 2);
    core::GateChip fast(3, 2);
    fast.enableLevelized();
    ASSERT_NE(fast.levelized(), nullptr);

    Rng rng(0xC41F);
    for (unsigned beat = 0; beat < 160; ++beat) {
        const bool pat0 = rng.nextBool();
        const bool pat1 = rng.nextBool();
        const bool str0 = rng.nextBool();
        const bool str1 = rng.nextBool();
        const bool lambda = rng.nextBool(0.3);
        const bool x = rng.nextBool(0.2);
        const bool rin = rng.nextBool();
        for (core::GateChip *chip : {&plain, &fast}) {
            chip->setPatternBit(0, pat0);
            chip->setPatternBit(1, pat1);
            chip->setStringBit(0, str0);
            chip->setStringBit(1, str1);
            chip->setControl(lambda, x);
            chip->setResultIn(rin);
            chip->tick();
        }
        expectSameNodes(plain.netlist(), fast.netlist(), "chip beat");
    }
    // The fast path must actually have taken over and gated work.
    EXPECT_GT(fast.levelized()->flatEvals(), 0u);
    EXPECT_GT(fast.levelized()->gatedSkips(), 0u);
}

TEST(Levelized, GateLevelMatcherBitIdenticalAndCheaper)
{
    core::ReferenceMatcher ref;
    for (std::uint64_t i = 0; i < 4; ++i) {
        const auto w = test::makeWorkload(0x6A7E + i);
        const std::size_t cells = w.pattern.size();

        core::GateLevelMatcher event(cells, w.bits);
        core::GateLevelMatcher lev(cells, w.bits);
        lev.setUseLevelized(true);

        const auto r_event = event.match(w.text, w.pattern);
        const auto r_lev = lev.match(w.text, w.pattern);
        EXPECT_EQ(r_lev, r_event) << "workload " << i;
        EXPECT_EQ(r_lev, ref.match(w.text, w.pattern)) << "workload " << i;
        EXPECT_EQ(lev.lastBeats(), event.lastBeats());
        // The levelized pass must not do more device evaluations than
        // the event-driven worklist it replaces.
        EXPECT_LE(lev.lastEvals(), event.lastEvals()) << "workload " << i;
    }
}

TEST(Levelized, RejectsNetlistGrownAfterCompile)
{
    Netlist net("grow");
    const NodeId a = net.addNode("a");
    const NodeId b = net.addNode("b");
    net.markInput(a);
    net.addInverter(a, b);
    LevelizedNetlist accel(net);
    accel.attach();
    const NodeId c = net.addNode("c");
    net.addInverter(b, c);
    net.setInput(a, LogicValue::H, 10);
    EXPECT_THROW(net.settle(10), std::logic_error);
}

} // namespace
} // namespace spm::gate
