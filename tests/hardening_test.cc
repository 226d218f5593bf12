/**
 * @file
 * Hardening tests: failure paths and edge geometry the main suites
 * do not reach -- oscillation detection, degenerate simulators, and
 * boundary conditions in the layout pipeline.
 */

#include <gtest/gtest.h>

#include "core/behavioral.hh"
#include "gate/netlist.hh"
#include "layout/cif.hh"
#include "layout/masklayout.hh"
#include "systolic/engine.hh"
#include "util/bitvec.hh"
#include "util/strings.hh"

namespace spm
{
namespace
{

TEST(Hardening, RingOscillatorIsDetected)
{
    // A ring of three inverters never settles; the netlist must
    // report it instead of spinning forever.
    gate::Netlist net("ring");
    const auto a = net.addNode("a");
    const auto b = net.addNode("b");
    const auto c = net.addNode("c");
    const auto kick = net.addNode("kick");
    net.markInput(kick);
    net.addInverter(a, b);
    net.addInverter(b, c);
    // Close the loop through a NAND so an input can start it. While
    // kick is low the loop is forced to definite, stable levels;
    // raising kick turns it into a three-inverter ring.
    net.addGate(gate::DeviceKind::Nand2, c, kick, a);
    net.setInput(kick, gate::LogicValue::L, 0);
    net.settle(0); // a=H, b=L, c=H: definite and stable
    net.setInput(kick, gate::LogicValue::H, 1);
    EXPECT_THROW(net.settle(1), std::logic_error);
}

TEST(Hardening, StableFeedbackLoopSettles)
{
    // Cross-coupled NORs (an RS latch) contain feedback but settle;
    // the oscillation bound must not reject them.
    gate::Netlist net("rs");
    const auto s = net.addNode("s");
    const auto r = net.addNode("r");
    const auto q = net.addNode("q");
    const auto nq = net.addNode("nq");
    net.markInput(s);
    net.markInput(r);
    net.addGate(gate::DeviceKind::Nor2, r, nq, q);
    net.addGate(gate::DeviceKind::Nor2, s, q, nq);
    // Set: s high forces nq low, which lets q go high.
    net.setInput(s, gate::LogicValue::H, 0);
    net.setInput(r, gate::LogicValue::L, 0);
    net.settle(0);
    EXPECT_EQ(net.value(q), gate::LogicValue::H);
    EXPECT_EQ(net.value(nq), gate::LogicValue::L);
    // Reset.
    net.setInput(s, gate::LogicValue::L, 1);
    net.setInput(r, gate::LogicValue::H, 1);
    net.settle(1);
    EXPECT_EQ(net.value(q), gate::LogicValue::L);
    EXPECT_EQ(net.value(nq), gate::LogicValue::H);
}

TEST(Hardening, EngineWithNoCellsRuns)
{
    systolic::Engine engine;
    engine.run(5);
    EXPECT_EQ(engine.clock().beat(), 5u);
    EXPECT_DOUBLE_EQ(engine.lastUtilization(), 0.0);
}

TEST(Hardening, MatcherHandlesPatternEqualToText)
{
    core::BehavioralMatcher chip;
    const auto text = parseSymbols("ABCD");
    const auto r = chip.match(text, text);
    EXPECT_EQ(r, BitVec::fromString("0001"));
}

TEST(Hardening, MatcherHandlesSingleCharacterEverything)
{
    core::BehavioralMatcher chip;
    const auto r = chip.match(parseSymbols("A"), parseSymbols("A"));
    EXPECT_EQ(r, BitVec::fromString("1"));
    const auto miss = chip.match(parseSymbols("A"), parseSymbols("B"));
    EXPECT_EQ(miss, BitVec::fromString("0"));
}

TEST(Hardening, RepeatedMatcherUseIsIndependent)
{
    // A matcher instance must not leak state between calls.
    core::BehavioralMatcher chip(4);
    const auto t1 = parseSymbols("ABABAB");
    const auto p1 = parseSymbols("AB");
    const auto first = chip.match(t1, p1);
    chip.match(parseSymbols("CCCC"), parseSymbols("CC"));
    EXPECT_EQ(chip.match(t1, p1), first);
}

TEST(Hardening, CifHandlesOddAndNegativeGeometry)
{
    layout::MaskLayout cell("odd");
    cell.addRect(layout::Layer::Poly, layout::Rect{-7, -3, 2, 2});
    cell.addRect(layout::Layer::Metal, layout::Rect{1, 1, 4, 6});
    const auto parsed =
        layout::readCif(layout::writeCif(cell, 2.5), 2.5);
    ASSERT_EQ(parsed.shapeCount(), 2u);
    EXPECT_EQ(parsed.boundingBox(), cell.boundingBox());
}

TEST(Hardening, HugeLayoutRenderDegradesGracefully)
{
    layout::MaskLayout cell("huge");
    cell.addRect(layout::Layer::Metal, layout::Rect{0, 0, 100000, 3});
    EXPECT_NE(cell.renderAscii(2).find("too large"),
              std::string::npos);
}

TEST(Hardening, FeedPlanBoundaryBeats)
{
    // Beat 0 and the last planned beat must produce well-formed
    // tokens for every stream.
    const core::ChipFeedPlan plan(4, parseSymbols("AB"), 3);
    for (Beat u = 0; u < plan.totalBeats(); ++u) {
        (void)plan.patternAt(u);
        (void)plan.controlAt(u);
        (void)plan.stringAt(u, parseSymbols("ABC"));
        (void)plan.resultAt(u);
    }
    SUCCEED();
}

TEST(Hardening, BitVecWordBoundaryFlip)
{
    BitVec v(64, true); // exactly one word
    v.flip();
    EXPECT_EQ(v.popcount(), 0u);
    v.pushBack(true); // now 65 bits
    EXPECT_EQ(v.popcount(), 1u);
    EXPECT_TRUE(v.get(64));
}

} // namespace
} // namespace spm
