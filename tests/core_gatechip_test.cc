/** @file Tests for the gate-level chip. */

#include <gtest/gtest.h>

#include "core/bitserial.hh"
#include "core/gatechip.hh"
#include "core/reference.hh"
#include "tests/helpers.hh"
#include "util/strings.hh"

namespace spm::core
{
namespace
{

TEST(GateChip, PrototypeInventory)
{
    // 8 cells x 2-bit characters: 16 single-bit comparators (7
    // devices each) plus 8 accumulators.
    GateChip chip(8, 2);
    const gate::Netlist &net = chip.netlist();
    EXPECT_EQ(net.countKind(gate::DeviceKind::Xnor2) +
                  net.countKind(gate::DeviceKind::Xor2),
              16u)
        << "one equality gate per comparator cell";
    EXPECT_GT(net.transistorCount(), 400u);
    EXPECT_LT(net.transistorCount(), 1200u)
        << "well inside late-70s NMOS budgets";
}

TEST(GateChip, MatchesReferenceOnPaperExample)
{
    GateLevelMatcher chip(3, 2);
    ReferenceMatcher ref;
    EXPECT_EQ(chip.match(test::paperText(), test::paperPattern()),
              ref.match(test::paperText(), test::paperPattern()));
}

TEST(GateChip, MatchesBitSerialModel)
{
    const test::Workload w = test::makeWorkload(55);
    GateLevelMatcher gates(w.pattern.size(), w.bits);
    BitSerialMatcher tokens(w.pattern.size(), w.bits);
    EXPECT_EQ(gates.match(w.text, w.pattern),
              tokens.match(w.text, w.pattern));
}

TEST(GateChip, SimulatedTimeMatchesPrototypeRate)
{
    // 250 ns per beat: matching n characters takes about 2n beats of
    // 250 ns each once the pipeline is full.
    GateLevelMatcher chip(2, 1);
    WorkloadGen gen(9, 1);
    const auto text = gen.randomText(50);
    const auto pat = gen.randomPattern(2);
    chip.match(text, pat);
    EXPECT_GT(chip.lastBeats(), 100u);
}

TEST(GateChip, StallDestroysState)
{
    // Section 3.3.3 failure injection: stop the clock past the
    // retention limit and the dynamic registers lose their data.
    GateChip chip(4, 2);
    const ChipFeedPlan plan(4, parseSymbols("AB"), 8);
    const auto text = parseSymbols("ABABABAB");
    for (Beat u = 0; u < 12; ++u) {
        for (unsigned row = 0; row < 2; ++row) {
            const PatToken p =
                u >= row ? plan.patternAt(u - row) : PatToken{};
            chip.setPatternBit(row,
                               p.valid && ((p.sym >> (1 - row)) & 1));
            const StrToken s =
                u >= row ? plan.stringAt(u - row, text) : StrToken{};
            chip.setStringBit(row,
                              s.valid && ((s.sym >> (1 - row)) & 1));
        }
        const CtlToken c = u >= 1 ? plan.controlAt(u - 1) : CtlToken{};
        chip.setControl(c.valid && c.lambda, c.valid && c.x);
        const ResToken r = u >= 1 ? plan.resultAt(u - 1) : ResToken{};
        chip.setResultIn(r.valid && r.value);
        chip.tick();
    }
    // Short stall: harmless. Long stall: many nodes decay to X.
    EXPECT_EQ(chip.stall(gate::defaultRetentionPs / 100), 0u);
    const std::size_t lost = chip.stall(2 * gate::defaultRetentionPs);
    EXPECT_GT(lost, 10u)
        << "a stopped clock wipes the dynamic shift registers";
}

TEST(GateChip, RowRangeChecked)
{
    GateChip chip(2, 2);
    EXPECT_THROW(chip.setPatternBit(2, true), std::logic_error);
    EXPECT_THROW(chip.setStringBit(5, false), std::logic_error);
}

TEST(GateChip, ParameterValidation)
{
    EXPECT_THROW(GateChip(0, 2), std::logic_error);
    EXPECT_THROW(GateChip(2, 0), std::logic_error);
    EXPECT_THROW(GateChip(2, 9), std::logic_error);
}

TEST(GateChip, TransistorCountScalesLinearly)
{
    GateLevelMatcher small(2, 2);
    GateLevelMatcher big(8, 2);
    WorkloadGen gen(5, 2);
    const auto text = gen.randomText(20);
    const auto pat = gen.randomPattern(2);
    small.match(text, pat);
    big.match(text, pat);
    // 4x the cells: close to 4x the transistors (modulo edge cells).
    const double ratio = static_cast<double>(big.lastTransistors()) /
                         static_cast<double>(small.lastTransistors());
    EXPECT_NEAR(ratio, 4.0, 0.5);
}

/** Property sweep: gate level equals the reference definition. */
class GateProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(GateProperty, MatchesReferenceOnRandomWorkloads)
{
    const test::Workload w = test::makeWorkload(GetParam() + 300);
    ReferenceMatcher ref;
    GateLevelMatcher chip(w.pattern.size(), w.bits);
    EXPECT_EQ(chip.match(w.text, w.pattern),
              ref.match(w.text, w.pattern));
}

INSTANTIATE_TEST_SUITE_P(RandomSweep, GateProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

/**
 * @p lanes windows cut from one seeded text, each overlapping the
 * previous by k-1 characters as the service cuts them, every window
 * @p chunk characters past its overlap except a ragged last one.
 */
std::vector<std::vector<Symbol>>
laneWindows(std::uint64_t seed, BitWidth bits,
            const std::vector<Symbol> &pattern, std::size_t lanes,
            std::size_t chunk)
{
    WorkloadGen gen(seed, bits);
    const std::size_t n = chunk * lanes - chunk / 2;
    const std::vector<Symbol> text =
        gen.textWithPlants(n, pattern, 2 * pattern.size() + 1);
    std::vector<std::vector<Symbol>> windows;
    for (std::size_t off = 0; off < n; off += chunk) {
        const std::size_t start = off - std::min(pattern.size() - 1, off);
        const std::size_t end = std::min(n, off + chunk);
        windows.emplace_back(text.begin() + static_cast<std::ptrdiff_t>(start),
                             text.begin() + static_cast<std::ptrdiff_t>(end));
    }
    return windows;
}

/** Every lane must equal a scalar match() of its window, beats too. */
void
expectLanesMatchScalar(GateLevelMatcher &lanes, GateLevelMatcher &scalar,
                       const std::vector<std::vector<Symbol>> &windows,
                       const std::vector<Symbol> &pattern)
{
    const std::vector<std::span<const Symbol>> views(windows.begin(),
                                                     windows.end());
    const std::span<GateLevelMatcher::LaneResult> got =
        lanes.matchLanes(views, pattern);
    ASSERT_EQ(got.size(), windows.size());
    for (std::size_t w = 0; w < windows.size(); ++w) {
        EXPECT_EQ(got[w].bits, scalar.match(windows[w], pattern))
            << "window " << w << " of " << windows.size();
        EXPECT_EQ(got[w].beats, scalar.lastBeats())
            << "window " << w << " of " << windows.size();
    }
}

/** (alphabet bits, lanes) */
class GateLanes
    : public ::testing::TestWithParam<std::tuple<BitWidth, std::size_t>>
{
};

TEST_P(GateLanes, EveryLaneEqualsItsScalarMatch)
{
    const auto [bits, lanes] = GetParam();
    const std::size_t cells = 6;
    GateLevelMatcher lane_matcher(cells, bits);
    GateLevelMatcher scalar(cells, bits);
    // Exact and wildcard patterns of several lengths, one chip shape
    // reused across them (the lane engine is built once).
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        WorkloadGen gen(100 + seed, bits);
        const std::vector<Symbol> pattern =
            gen.randomPattern(2 + 2 * seed, seed == 0 ? 0.0 : 0.3);
        expectLanesMatchScalar(
            lane_matcher, scalar,
            laneWindows(seed * 7 + bits, bits, pattern, lanes, 24),
            pattern);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GateLanes,
    ::testing::Combine(::testing::Values(BitWidth{1}, BitWidth{2},
                                         BitWidth{3}),
                       ::testing::Values(std::size_t{1}, std::size_t{16},
                                         std::size_t{64})));

TEST(GateLanesEdges, ShortWindowsAndMoreThan64Lanes)
{
    // 70 windows: two passes (64 + 6 lanes). Windows shorter than the
    // pattern, and empty ones, answer all-false at 0 beats, as match()
    // does, without disturbing their neighbours.
    GateLevelMatcher lane_matcher(4, 2);
    GateLevelMatcher scalar(4, 2);
    const std::vector<Symbol> pattern = parseSymbols("AXB");
    std::vector<std::vector<Symbol>> windows =
        laneWindows(5, 2, pattern, 68, 7);
    windows.insert(windows.begin() + 3, parseSymbols("AB"));
    windows.push_back({});
    expectLanesMatchScalar(lane_matcher, scalar, windows, pattern);
    EXPECT_TRUE(lane_matcher.matchLanes({}, pattern).empty());
}

TEST(GateLanesEdges, StuckAtPrepAppliesToEveryLane)
{
    // A chip-prep that forces stuck-at sites: every lane must equal
    // the scalar faulty chip, and the faults must bite somewhere.
    const std::size_t cells = 8;
    const BitWidth bits = 2;
    const GateChip probe(cells, bits);
    const gate::NodeId result = probe.resultNode();
    auto prep = [](GateChip &chip) {
        gate::Netlist &net = chip.netlist();
        for (gate::NodeId node : {gate::NodeId{40}, gate::NodeId{97},
                                  gate::NodeId{151}})
            net.forceStuckAt(node,
                             node % 2 ? gate::LogicValue::H
                                      : gate::LogicValue::L,
                             0);
    };
    GateLevelMatcher lane_matcher(cells, bits);
    GateLevelMatcher scalar(cells, bits);
    lane_matcher.setChipPrep(prep);
    scalar.setChipPrep(prep);
    ASSERT_LT(151u, probe.netlist().nodeCount());
    ASSERT_NE(result, gate::NodeId{40});

    WorkloadGen gen(77, bits);
    const std::vector<Symbol> pattern = gen.randomPattern(5, 0.2);
    const std::vector<std::vector<Symbol>> windows =
        laneWindows(78, bits, pattern, 16, 32);
    expectLanesMatchScalar(lane_matcher, scalar, windows, pattern);

    ReferenceMatcher ref;
    std::size_t wrong = 0;
    for (const auto &w : windows)
        wrong += scalar.match(w, pattern) != ref.match(w, pattern);
    EXPECT_GT(wrong, 0u) << "the forced sites never changed an answer";
}

TEST(GateLanesEdges, NeedsAnExplicitShape)
{
    GateLevelMatcher auto_shape;
    const std::vector<Symbol> window = parseSymbols("ABAB");
    const std::span<const Symbol> views[] = {window};
    EXPECT_THROW(auto_shape.matchLanes(views, parseSymbols("AB")),
                 std::logic_error);
}

} // namespace
} // namespace spm::core
