#include "gate/planesim.hh"

#include <algorithm>
#include <bit>
#include <tuple>
#include <type_traits>

#include "util/logging.hh"

namespace spm::gate
{

namespace
{

/** Append @p lists to @p items as one CSR array with offsets @p start. */
template <typename T>
void
flatten(const std::vector<std::vector<T>> &lists,
        std::vector<std::uint32_t> &start, std::vector<T> &items)
{
    start.assign(1, 0);
    for (const std::vector<T> &l : lists) {
        items.insert(items.end(), l.begin(), l.end());
        start.push_back(static_cast<std::uint32_t>(items.size()));
    }
}

/** Call @p f with @p kind as a compile-time constant. */
template <class F>
void
dispatch(DeviceKind kind, F &&f)
{
    using K = DeviceKind;
    switch (kind) {
    case K::Inverter: return f(std::integral_constant<K, K::Inverter>{});
    case K::Nand2: return f(std::integral_constant<K, K::Nand2>{});
    case K::Nor2: return f(std::integral_constant<K, K::Nor2>{});
    case K::And2: return f(std::integral_constant<K, K::And2>{});
    case K::Or2: return f(std::integral_constant<K, K::Or2>{});
    case K::Xor2: return f(std::integral_constant<K, K::Xor2>{});
    case K::Xnor2: return f(std::integral_constant<K, K::Xnor2>{});
    case K::PassGate: return f(std::integral_constant<K, K::PassGate>{});
    }
}

} // namespace

Levelization
levelize(const Netlist &net, const std::vector<std::uint8_t> &live)
{
    const std::vector<Device> &devs = net.devices;
    const std::size_t nd = devs.size();
    Levelization lev;

    // The devices the order covers: every static gate, and every pass
    // transistor whose gate is live. A held transistor is a boundary.
    auto covered = [&](std::size_t d) {
        return devs[d].kind != DeviceKind::PassGate ||
               (!live.empty() && live[devs[d].ctl] != 0);
    };

    // Kahn's algorithm, one edge per reader-list entry from a covered
    // producer to a covered consumer; an input driven by a held pass
    // transistor (or a primary input) contributes no edge.
    std::vector<std::uint32_t> indegree(nd, 0);
    std::size_t coveredCount = 0;
    for (std::size_t d = 0; d < nd; ++d) {
        if (!covered(d))
            continue;
        ++coveredCount;
        for (std::uint32_t consumer : net.fanout[devs[d].out])
            if (covered(consumer))
                ++indegree[consumer];
    }

    lev.topo.reserve(coveredCount);
    std::vector<std::uint32_t> ready;
    for (std::size_t d = 0; d < nd; ++d)
        if (covered(d) && indegree[d] == 0)
            ready.push_back(static_cast<std::uint32_t>(d));
    // Every device starts out of the order; Kahn clears the flag of
    // each device it places. What stays set is a held pass transistor
    // or a device on a feedback cycle (e.g. the static shift
    // register's regeneration loop, or a loop through both phases'
    // transistors when both conduct).
    lev.isFallback.assign(nd, 1);
    while (!ready.empty()) {
        const std::uint32_t d = ready.back();
        ready.pop_back();
        lev.topo.push_back(d);
        lev.isFallback[d] = 0;
        for (std::uint32_t consumer : net.fanout[devs[d].out])
            if (covered(consumer) && --indegree[consumer] == 0)
                ready.push_back(consumer);
    }
    // LIFO popping can interleave levels; that is still a valid order,
    // because Kahn only releases a device once every covered producer
    // is already placed.
    lev.cyclic = lev.topo.size() != coveredCount;
    return lev;
}

PlaneSim::PlaneSim(const Netlist &netlist)
    : net(netlist), nodeCount(netlist.nodeCount()),
      lev(levelize(netlist, {}))
{
    one.assign(nodeCount + 1, 0);
    zero.assign(nodeCount + 1, 0);
    force1.assign(nodeCount, 0);
    force0.assign(nodeCount, 0);
    forceAny.assign(nodeCount, 0);
    pending.assign((lev.topo.size() + 63) / 64, 0);

    const std::vector<Device> &devs = net.deviceList();
    const auto spare = static_cast<NodeId>(nodeCount);
    controlIndex.assign(nodeCount, -1);
    devSteps.reserve(devs.size());
    for (const Device &d : devs) {
        if (d.kind != DeviceKind::PassGate) {
            devSteps.push_back(
                {d.kind, d.inA, d.inB == invalidNode ? spare : d.inB, d.out});
            continue;
        }
        // A gate node that no device drives is final before a settle
        // starts, which is what makes a live set's order exact.
        spm_assert(net.isInputNode(d.ctl), "pass transistor gated by '",
                   net.nodeName(d.ctl), "', which is not a primary input");
        if (controlIndex[d.ctl] < 0) {
            controlIndex[d.ctl] = static_cast<std::int32_t>(controls.size());
            controls.push_back(d.ctl);
        }
        devSteps.push_back({d.kind, d.inA, d.ctl, d.out});
    }

    // Positions rise with p, so a node's readers sharing a pending
    // word are adjacent and fold into one mark.
    std::vector<std::vector<PendingMark>> marks(nodeCount);
    auto mark = [&](NodeId node, std::uint32_t p) {
        std::vector<PendingMark> &m = marks[node];
        if (m.empty() || m.back().word != p / 64)
            m.push_back({p / 64, 0});
        m.back().bits |= 1ULL << (p % 64);
    };
    for (std::uint32_t p = 0; p < lev.topo.size(); ++p) {
        const Device &d = devs[lev.topo[p]];
        mark(d.inA, p);
        if (d.inB != invalidNode && d.inB != d.inA)
            mark(d.inB, p);
    }
    flatten(marks, readerStart, readerMarks);

    // The fallback devices by the nodes they read, split by how they
    // read them: as a pass transistor's gate, or as data.
    std::vector<std::vector<std::uint32_t>> gated(nodeCount);
    std::vector<std::vector<DataReader>> data(nodeCount);
    for (std::uint32_t dev = 0; dev < devs.size(); ++dev) {
        if (!lev.isFallback[dev])
            continue;
        const Device &d = devs[dev];
        if (d.kind == DeviceKind::PassGate) {
            gated[d.ctl].push_back(dev);
            data[d.inA].push_back({dev, d.ctl});
            continue;
        }
        data[d.inA].push_back({dev, spare});
        if (d.inB != invalidNode && d.inB != d.inA)
            data[d.inB].push_back({dev, spare});
    }
    flatten(gated, gatedStart, gatedDevs);
    flatten(data, dataStart, dataReaders);
}

void
PlaneSim::load(const std::vector<LogicValue> &values,
               const std::vector<PlaneForce> &forces)
{
    spm_assert(values.size() == nodeCount,
               "snapshot taken from a different netlist structure");
    for (NodeId node = 0; node < nodeCount; ++node) {
        one[node] = values[node] == LogicValue::H ? ~0ULL : 0ULL;
        zero[node] = values[node] == LogicValue::L ? ~0ULL : 0ULL;
    }
    for (NodeId node : forcedNodes) {
        force1[node] = 0;
        force0[node] = 0;
        forceAny[node] = 0;
    }
    forcedNodes.clear();
    written.clear();
    worklist.clear();
    std::fill(pending.begin(), pending.end(), 0);
    liveStale = true;

    for (const PlaneForce &f : forces) {
        spm_assert(f.node < nodeCount, "forced node out of range");
        if (forceAny[f.node] == 0)
            forcedNodes.push_back(f.node);
        if (f.level == LogicValue::H)
            force1[f.node] |= f.lanes;
        else if (f.level == LogicValue::L)
            force0[f.node] |= f.lanes;
        forceAny[f.node] |= f.lanes;
    }
    for (NodeId node : forcedNodes)
        record(node, store(node, one[node], zero[node]));
}

void
PlaneSim::record(NodeId node, std::uint64_t changed)
{
    if (changed == 0)
        return;
    written.push_back({node, changed});
    if (controlIndex[node] >= 0)
        liveStale = true;
}

/**
 * Word-wide evaluation of @p s, a device of kind K, on the two-plane
 * encoding: the one formula per kind that the tape's runs and the
 * relaxation share. Each static formula is the plane transcription of
 * gate/logic.hh's three-valued operator: a lane with neither plane bit
 * set is X and stays X exactly when the scalar algebra says so. A pass
 * transistor copies its source where its gate is H, holds its output
 * where the gate is L, and loses its charge to X where the gate is X
 * -- bitwise-exactly Netlist::evaluateDevice's three arms.
 */
template <DeviceKind K>
inline void
PlaneSim::eval(const Step &s, std::uint64_t &o1, std::uint64_t &o0) const
{
    using enum DeviceKind;
    const std::uint64_t a1 = one[s.a];
    const std::uint64_t a0 = zero[s.a];
    const std::uint64_t b1 = one[s.b];
    const std::uint64_t b0 = zero[s.b];
    if constexpr (K == Inverter) {
        o1 = a0;
        o0 = a1;
    } else if constexpr (K == And2 || K == Nand2) {
        o1 = K == And2 ? a1 & b1 : a0 | b0;
        o0 = K == And2 ? a0 | b0 : a1 & b1;
    } else if constexpr (K == Or2 || K == Nor2) {
        o1 = K == Or2 ? a1 | b1 : a0 & b0;
        o0 = K == Or2 ? a0 & b0 : a1 | b1;
    } else if constexpr (K == Xor2 || K == Xnor2) {
        const std::uint64_t differ = (a1 & b0) | (a0 & b1);
        const std::uint64_t agree = (a1 & b1) | (a0 & b0);
        o1 = K == Xor2 ? differ : agree;
        o0 = K == Xor2 ? agree : differ;
    } else {
        o1 = (b1 & a1) | (b0 & one[s.out]);
        o0 = (b1 & a0) | (b0 & zero[s.out]);
    }
}

/** One run of a tape: steps [@p s, @p end), all of kind K, in order. */
template <DeviceKind K, bool Forced>
void
PlaneSim::run(const Step *s, const Step *end)
{
    for (; s != end; ++s) {
        std::uint64_t o1 = 0;
        std::uint64_t o0 = 0;
        eval<K>(*s, o1, o0);
        if constexpr (Forced) {
            store(s->out, o1, o0);
        } else {
            one[s->out] = o1;
            zero[s->out] = o0;
        }
    }
}

void
PlaneSim::settle()
{
    if (written.empty())
        return;
    if (liveStale) {
        current = orderForLiveSet();
        liveStale = false;
    }
    PhaseOrder &order = orders[current];
    if (!order.cyclic) {
        replay(order);
        return;
    }
    for (const Write &w : written)
        schedule(w.node, w.lanes);
    written.clear();
    relax();
}

std::size_t
PlaneSim::orderForLiveSet()
{
    liveScratch.assign((controls.size() + 63) / 64, 0);
    for (std::size_t c = 0; c < controls.size(); ++c)
        if (zero[controls[c]] != ~0ULL)
            liveScratch[c / 64] |= 1ULL << (c % 64);
    for (std::size_t i = 0; i < orders.size(); ++i)
        if (orders[i].live == liveScratch)
            return i;
    orders.push_back(compile(liveScratch));
    return orders.size() - 1;
}

PlaneSim::PhaseOrder
PlaneSim::compile(const std::vector<std::uint64_t> &live) const
{
    PhaseOrder order;
    order.live = live;
    std::vector<std::uint8_t> liveNodes(nodeCount, 0);
    for (std::size_t c = 0; c < controls.size(); ++c)
        liveNodes[controls[c]] = (live[c / 64] >> (c % 64)) & 1;
    const Levelization l = levelize(net, liveNodes);
    order.cyclic = l.cyclic;
    if (order.cyclic)
        return order;

    order.steps.reserve(l.topo.size());
    order.read.assign(nodeCount + 1, 0);
    for (std::uint32_t dev : l.topo) {
        const Step &st = order.steps.emplace_back(devSteps[dev]);
        order.read[st.a] = order.read[st.b] = 1;
    }
    return order;
}

void
PlaneSim::replay(PhaseOrder &order)
{
    // A node no ordered device reads has an empty cone.
    tapeKey.clear();
    for (const Write &w : written)
        if (order.read[w.node])
            tapeKey.push_back(w.node);
    written.clear();
    if (tapeKey.empty())
        return;
    const auto hit =
        std::find_if(order.tapes.begin(), order.tapes.end(),
                     [&](const Tape &t) { return t.key == tapeKey; });
    const Tape &tape = hit != order.tapes.end() ? *hit : compileTape(order);
    evals += tape.steps.size();
    // Whether a lane is forced anywhere is fixed from load() to load().
    const bool forced = !forcedNodes.empty();
    const Step *s = tape.steps.data();
    for (const std::uint32_t end : tape.runEnds) {
        const Step *e = tape.steps.data() + end;
        dispatch(s->kind, [&](auto k) {
            forced ? run<decltype(k)::value, true>(s, e)
                   : run<decltype(k)::value, false>(s, e);
        });
        s = e;
    }
}

const PlaneSim::Tape &
PlaneSim::compileTape(PhaseOrder &order)
{
    if (tapes == tapeBound) {
        for (PhaseOrder &o : orders)
            o.tapes.clear();
        tapes = 0;
    }
    ++tapes;
    // One walk of the order finds the cones and levels them: a device
    // reading a written node (level 1) or a cone device's output joins,
    // one level after every earlier cone device writing its inputs or
    // output. Level 0 marks a node no cone device writes.
    std::vector<std::uint32_t> level(nodeCount + 1, 0);
    for (const NodeId node : tapeKey)
        level[node] = 1;
    std::vector<std::tuple<std::uint32_t, DeviceKind, std::uint32_t>> placed;
    for (std::uint32_t p = 0; p < order.steps.size(); ++p) {
        const Step &s = order.steps[p];
        if (level[s.a] == 0 && level[s.b] == 0)
            continue;
        level[s.out] = 1 + std::max({level[s.a], level[s.b], level[s.out]});
        placed.emplace_back(level[s.out], s.kind, p);
    }
    std::sort(placed.begin(), placed.end());
    Tape &tape = order.tapes.emplace_back();
    tape.key = tapeKey;
    const auto cut = [&] {
        tape.runEnds.push_back(static_cast<std::uint32_t>(tape.steps.size()));
    };
    for (const auto &[lvl, kind, p] : placed) {
        if (!tape.steps.empty() && tape.steps.back().kind != kind)
            cut();
        tape.steps.push_back(order.steps[p]);
    }
    cut();
    return tape;
}

void
PlaneSim::schedule(NodeId node, std::uint64_t changed)
{
    for (std::uint32_t r = readerStart[node]; r < readerStart[node + 1]; ++r)
        pending[readerMarks[r].word] |= readerMarks[r].bits;
    // Schedule a pass transistor only when some changed lane could
    // change its output (see the file comment): its gate turned X, or
    // rose to H over an output that differs from the source; or its
    // source changed where its gate is not L. A gate that only falls
    // schedules none of its transistors.
    const std::uint64_t to_x = changed & ~(one[node] | zero[node]);
    const std::uint64_t to_h = changed & one[node];
    if ((to_x | to_h) != 0) {
        for (std::uint32_t r = gatedStart[node]; r < gatedStart[node + 1];
             ++r) {
            const Step &s = devSteps[gatedDevs[r]];
            const std::uint64_t differs =
                (one[s.out] ^ one[s.a]) | (zero[s.out] ^ zero[s.a]);
            if ((to_x | (to_h & differs)) != 0)
                worklist.push_back(gatedDevs[r]);
        }
    }
    for (std::uint32_t r = dataStart[node]; r < dataStart[node + 1]; ++r) {
        const DataReader &dr = dataReaders[r];
        if ((changed & ~zero[dr.gate]) != 0)
            worklist.push_back(dr.dev);
    }
}

bool
PlaneSim::relaxDevice(std::uint32_t dev_idx)
{
    ++evals;
    const Step &s = devSteps[dev_idx];
    std::uint64_t o1 = 0;
    std::uint64_t o0 = 0;
    dispatch(s.kind, [&](auto k) { eval<decltype(k)::value>(s, o1, o0); });
    const std::uint64_t changed = store(s.out, o1, o0);
    if (changed == 0)
        return false;
    schedule(s.out, changed);
    return true;
}

void
PlaneSim::relax()
{
    const std::uint64_t devices = devSteps.size();
    const std::uint64_t round_limit = 64 + 4 * devices;
    const std::uint64_t eval_limit = 64 + 16ULL * devices * (devices + 1);
    std::uint64_t rounds = 0;
    std::uint64_t fallback_steps = 0;
    for (;;) {
        bool changed = false;
        // Topological pass over the static gates with a changed input,
        // in producer-before-consumer order: a write only marks
        // readers later in the order (gate::levelize placed writers
        // first), so in-pass propagation is picked up by the same
        // sweep.
        for (std::size_t w = 0; w < pending.size(); ++w) {
            while (pending[w] != 0) {
                const auto bit =
                    static_cast<std::size_t>(std::countr_zero(pending[w]));
                pending[w] &= pending[w] - 1;
                changed |= relaxDevice(lev.topo[w * 64 + bit]);
            }
        }

        // Event-driven relaxation of pass transistors and cyclic
        // statics, same LIFO discipline as the scalar fallback.
        while (!worklist.empty()) {
            const std::uint32_t dev = worklist.back();
            worklist.pop_back();
            changed |= relaxDevice(dev);
            spm_assert(++fallback_steps <= eval_limit,
                       "word netlist failed to settle (oscillating "
                       "feedback?)");
        }

        if (!changed)
            break;
        spm_assert(++rounds <= round_limit,
                   "word netlist failed to settle after ", rounds,
                   " rounds");
    }
}

} // namespace spm::gate
