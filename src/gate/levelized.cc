#include "gate/levelized.hh"

#include "telemetry/telem.hh"

#include "util/logging.hh"

namespace spm::gate
{

Levelization
levelize(const Netlist &net)
{
    const std::vector<Device> &devs = net.devices;
    const std::size_t nd = devs.size();
    const std::size_t nn = net.nodes.size();
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

    lev.fallbackFanout.resize(nn);
    for (NodeId node = 0; node < nn; ++node)
        for (std::uint32_t consumer : net.fanout[node])
            if (lev.isFallback[consumer])
                lev.fallbackFanout[node].push_back(consumer);
    return lev;
}

LevelizedNetlist::LevelizedNetlist(Netlist &netlist)
    : net(netlist), compiledDevices(netlist.devices.size()),
      lev(levelize(netlist))
{
    pending.assign(compiledDevices, 0);
    dirty.assign(net.nodes.size(), 0);
}

LevelizedNetlist::~LevelizedNetlist()
{
    detach();
}

void
LevelizedNetlist::detach()
{
    if (net.accelerator() == this)
        net.attachAccelerator(nullptr);
}

bool
LevelizedNetlist::writeNode(NodeId node, LogicValue v)
{
    Netlist::NodeState &n = net.nodes[node];
    if (n.stuck || n.value == v)
        return false;
    n.value = v;
    if (!dirty[node]) {
        dirty[node] = 1;
        touched.push_back(node);
    }
    for (std::uint32_t consumer : lev.fallbackFanout[node])
        worklist.push_back(consumer);
    return true;
}

bool
LevelizedNetlist::evaluateFallback(std::uint32_t dev_idx, Picoseconds now)
{
    // Mirrors Netlist::evaluateDevice exactly, including the charge
    // refresh bookkeeping, so stuck/decay semantics stay identical.
    ++net.evals;
    ++nFallbackEvals;
    const Device &d = net.devices[dev_idx];
    if (d.kind == DeviceKind::PassGate) {
        const LogicValue ctl = net.nodes[d.ctl].value;
        if (ctl == LogicValue::H) {
            net.nodes[d.out].lastRefresh = now;
            return writeNode(d.out, net.nodes[d.inA].value);
        }
        if (ctl == LogicValue::X)
            return writeNode(d.out, LogicValue::X);
        return false; // ctl low: output retains its charge
    }
    const LogicValue a = net.nodes[d.inA].value;
    const LogicValue b = d.inB == invalidNode ? LogicValue::X
                                              : net.nodes[d.inB].value;
    net.nodes[d.out].lastRefresh = now;
    return writeNode(d.out, Device::evalGate(d.kind, a, b));
}

void
LevelizedNetlist::settle(Picoseconds now)
{
    spm_assert(net.devices.size() == compiledDevices,
               "netlist '", net.name(), "' grew after levelization (",
               compiledDevices, " -> ", net.devices.size(),
               " devices); rebuild the LevelizedNetlist");

    // Seed from the netlist's pending worklist: evaluations scheduled
    // by setInput, forceStuckAt, clearStuckAt and decayCharge.
    for (std::uint32_t dev : net.worklist) {
        if (lev.isFallback[dev])
            worklist.push_back(dev);
        else
            pending[dev] = 1;
    }
    net.worklist.clear();

    const std::uint64_t round_limit = 64 + 4 * net.devices.size();
    const std::uint64_t eval_limit =
        64 + 16ULL * net.devices.size() * (net.devices.size() + 1);
    std::uint64_t rounds = 0;
    std::uint64_t fallback_steps = 0;
    [[maybe_unused]] const std::uint64_t evals_before = net.evals;
    for (;;) {
        bool changed = false;

        // Flat compiled pass: every ordered gate visited once, in
        // producer-before-consumer order, evaluated only when an
        // input changed (or an external event forced it). In-pass
        // propagation is free: a changed output dirties a node all
        // of whose ordered readers come later in the order.
        for (std::uint32_t d : lev.topo) {
            const Device &dev = net.devices[d];
            if (!pending[d] && !dirty[dev.inA] &&
                (dev.inB == invalidNode || !dirty[dev.inB])) {
                ++nGatedSkips;
                continue;
            }
            pending[d] = 0;
            ++net.evals;
            ++nFlatEvals;
            const LogicValue a = net.nodes[dev.inA].value;
            const LogicValue b = dev.inB == invalidNode
                ? LogicValue::X
                : net.nodes[dev.inB].value;
            net.nodes[dev.out].lastRefresh = now;
            changed |= writeNode(dev.out, Device::evalGate(dev.kind, a, b));
        }

        // The flat pass consumed every dirty mark visible to ordered
        // gates; clear them so the next round only reacts to what the
        // fallback phase changes.
        for (NodeId node : touched)
            dirty[node] = 0;
        touched.clear();

        // Event-driven relaxation of the fallback devices, same LIFO
        // discipline as Netlist::settle.
        while (!worklist.empty()) {
            const std::uint32_t dev = worklist.back();
            worklist.pop_back();
            changed |= evaluateFallback(dev, now);
            if (++fallback_steps > eval_limit)
                spm_panic("levelized netlist '", net.name(),
                          "' failed to settle (", fallback_steps,
                          " fallback evaluations; oscillating "
                          "feedback?)");
        }

        if (!changed)
            break;
        if (++rounds > round_limit)
            spm_panic("levelized netlist '", net.name(),
                      "' failed to settle after ", rounds, " rounds");
    }

    for (NodeId node : touched)
        dirty[node] = 0;
    touched.clear();

    SPM_TCOUNT_GLOBAL("gate.device_evals", net.evals - evals_before);
    SPM_THIST_GLOBAL("gate.settle_rounds", static_cast<double>(rounds + 1));
}

} // namespace spm::gate
