#include "gate/planesim.hh"

#include <algorithm>

#include "util/logging.hh"

namespace spm::gate
{

namespace
{

/**
 * Word-wide static gate evaluation on the two-plane encoding. Each
 * formula is the plane transcription of gate/logic.hh's three-valued
 * operator: a lane with neither plane bit set is X and stays X
 * exactly when the scalar algebra says so.
 */
void
evalStaticWord(DeviceKind kind, std::uint64_t a1, std::uint64_t a0,
               std::uint64_t b1, std::uint64_t b0, std::uint64_t &o1,
               std::uint64_t &o0)
{
    switch (kind) {
    case DeviceKind::Inverter:
        o1 = a0;
        o0 = a1;
        break;
    case DeviceKind::And2:
        o1 = a1 & b1;
        o0 = a0 | b0;
        break;
    case DeviceKind::Nand2:
        o1 = a0 | b0;
        o0 = a1 & b1;
        break;
    case DeviceKind::Or2:
        o1 = a1 | b1;
        o0 = a0 & b0;
        break;
    case DeviceKind::Nor2:
        o1 = a0 & b0;
        o0 = a1 | b1;
        break;
    case DeviceKind::Xor2:
        o1 = (a1 & b0) | (a0 & b1);
        o0 = (a1 & b1) | (a0 & b0);
        break;
    case DeviceKind::Xnor2:
        o1 = (a1 & b1) | (a0 & b0);
        o0 = (a1 & b0) | (a0 & b1);
        break;
    case DeviceKind::PassGate:
        spm_panic("evalStaticWord called on a pass transistor");
    }
}

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

} // namespace

Levelization
levelize(const Netlist &net)
{
    const std::vector<Device> &devs = net.devices;
    const std::size_t nd = devs.size();
    Levelization lev;

    auto isStatic = [&](std::size_t d) {
        return devs[d].kind != DeviceKind::PassGate;
    };

    // Kahn's algorithm over static-gate dependency edges. An input
    // driven by a pass transistor (or a primary input) is a boundary
    // of the ordered region and contributes no edge.
    std::vector<std::uint32_t> indegree(nd, 0);
    auto staticDriverOf = [&](NodeId node) -> std::int32_t {
        const std::int32_t drv = net.nodes[node].driver;
        if (drv >= 0 && isStatic(static_cast<std::size_t>(drv)))
            return drv;
        return -1;
    };
    for (std::size_t d = 0; d < nd; ++d) {
        if (!isStatic(d))
            continue;
        if (staticDriverOf(devs[d].inA) >= 0)
            ++indegree[d];
        if (devs[d].inB != invalidNode && devs[d].inB != devs[d].inA &&
            staticDriverOf(devs[d].inB) >= 0)
            ++indegree[d];
    }

    lev.topo.reserve(nd);
    std::vector<std::uint32_t> ready;
    for (std::size_t d = 0; d < nd; ++d)
        if (isStatic(d) && indegree[d] == 0)
            ready.push_back(static_cast<std::uint32_t>(d));
    // Every device starts as fallback; Kahn clears the flag of each
    // gate it places. What stays set is a pass transistor or a static
    // gate inside a feedback cycle (e.g. the static shift register's
    // regeneration loop): event-driven relaxation handles it.
    lev.isFallback.assign(nd, 1);
    while (!ready.empty()) {
        const std::uint32_t d = ready.back();
        ready.pop_back();
        lev.topo.push_back(d);
        lev.isFallback[d] = 0;
        for (std::uint32_t consumer : net.fanout[devs[d].out]) {
            if (!isStatic(consumer))
                continue;
            if (--indegree[consumer] == 0)
                ready.push_back(consumer);
        }
    }
    // Producers were pushed before consumers but LIFO popping can
    // interleave levels; re-sorting is unnecessary because Kahn only
    // releases a gate once every static producer is already placed.
    return lev;
}

PlaneSim::PlaneSim(const Netlist &netlist)
    : net(netlist), nodeCount(netlist.nodeCount()), lev(levelize(netlist))
{
    one.assign(nodeCount + 1, 0);
    zero.assign(nodeCount + 1, 0);
    force1.assign(nodeCount, 0);
    force0.assign(nodeCount, 0);
    forceAny.assign(nodeCount, 0);
    pending.assign((lev.topo.size() + 63) / 64, 0);

    const std::vector<Device> &devs = net.deviceList();
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
    const auto spare = static_cast<NodeId>(nodeCount);
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
    copied.assign(devs.size(), 0);
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
    worklist.clear();
    std::fill(pending.begin(), pending.end(), 0);
    std::fill(copied.begin(), copied.end(), 0);

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
        writeNode(node, one[node], zero[node]);
}

bool
PlaneSim::writeNode(NodeId node, std::uint64_t n1, std::uint64_t n0)
{
    // The force masks pin stuck lanes against every write -- the
    // word-parallel form of NodeState::stuck.
    const std::uint64_t any = forceAny[node];
    n1 = (n1 & ~any) | force1[node];
    n0 = (n0 & ~any) | force0[node];
    const std::uint64_t changed = (n1 ^ one[node]) | (n0 ^ zero[node]);
    if (changed == 0)
        return false;
    one[node] = n1;
    zero[node] = n0;
    for (std::uint32_t r = readerStart[node]; r < readerStart[node + 1]; ++r)
        pending[readerMarks[r].word] |= readerMarks[r].bits;
    // Schedule a pass transistor only when some changed lane could
    // change its output (see the file comment): its gate turned X, or
    // rose to H where the output does not carry the source yet; or its
    // source changed where its gate is not L. A gate that only falls
    // schedules none of its transistors.
    const std::uint64_t to_x = changed & ~(n1 | n0);
    const std::uint64_t to_h = changed & n1;
    if ((to_x | to_h) != 0) {
        for (std::uint32_t r = gatedStart[node]; r < gatedStart[node + 1];
             ++r)
            if ((to_x | (to_h & ~copied[gatedDevs[r]])) != 0)
                worklist.push_back(gatedDevs[r]);
    }
    for (std::uint32_t r = dataStart[node]; r < dataStart[node + 1]; ++r) {
        const DataReader &dr = dataReaders[r];
        copied[dr.dev] &= ~changed;
        if ((changed & ~zero[dr.gate]) != 0)
            worklist.push_back(dr.dev);
    }
    return true;
}

bool
PlaneSim::evalOrdered(std::uint32_t dev_idx)
{
    ++evals;
    const Device &d = net.deviceList()[dev_idx];
    const NodeId nb = d.inB == invalidNode ? d.inA : d.inB;
    std::uint64_t o1 = 0;
    std::uint64_t o0 = 0;
    // A one-input gate's unused plane pair mirrors the scalar path's
    // b = X (all-zero planes are harmless: the inverter ignores b).
    evalStaticWord(d.kind, one[d.inA], zero[d.inA],
                   d.inB == invalidNode ? 0 : one[nb],
                   d.inB == invalidNode ? 0 : zero[nb], o1, o0);
    return writeNode(d.out, o1, o0);
}

bool
PlaneSim::evalFallback(std::uint32_t dev_idx)
{
    const Device &d = net.deviceList()[dev_idx];
    if (d.kind != DeviceKind::PassGate)
        return evalOrdered(dev_idx);
    ++evals;
    // Per lane: ctl high copies the source (refresh), ctl low holds
    // the stored planes, ctl X makes the stored value unknown --
    // bitwise-exactly Netlist::evaluateDevice's three arms.
    const std::uint64_t c1 = one[d.ctl];
    const std::uint64_t c0 = zero[d.ctl];
    const std::uint64_t o1 = (c1 & one[d.inA]) | (c0 & one[d.out]);
    const std::uint64_t o0 = (c1 & zero[d.inA]) | (c0 & zero[d.out]);
    // Conducting lanes now carry the source; held lanes keep theirs.
    copied[dev_idx] = (copied[dev_idx] & c0) | c1;
    return writeNode(d.out, o1, o0);
}

void
PlaneSim::settle()
{
    const std::vector<Device> &devs = net.deviceList();
    const std::uint64_t round_limit = 64 + 4 * devs.size();
    const std::uint64_t eval_limit =
        64 + 16ULL * devs.size() * (devs.size() + 1);
    std::uint64_t rounds = 0;
    std::uint64_t fallback_steps = 0;
    for (;;) {
        bool changed = false;
        // Topological pass over the gates with a changed input, in
        // producer-before-consumer order: a write only marks readers
        // later in the order (gate::levelize placed writers first), so
        // in-pass propagation is picked up by the same sweep, and the
        // gates evaluated are exactly those a full dirty-checked scan
        // would evaluate.
        for (std::size_t w = 0; w < pending.size(); ++w) {
            while (pending[w] != 0) {
                const auto bit =
                    static_cast<std::size_t>(__builtin_ctzll(pending[w]));
                pending[w] &= pending[w] - 1;
                changed |= evalOrdered(lev.topo[w * 64 + bit]);
            }
        }

        // Event-driven relaxation of pass transistors and cyclic
        // statics, same LIFO discipline as the scalar fallback.
        while (!worklist.empty()) {
            const std::uint32_t dev = worklist.back();
            worklist.pop_back();
            changed |= evalFallback(dev);
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
