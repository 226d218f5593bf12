#include "gate/netlist.hh"

#include "util/logging.hh"

namespace spm::gate
{

Netlist::Netlist(std::string netlist_name) : netName(std::move(netlist_name))
{
}

NodeId
Netlist::addNode(const std::string &node_name)
{
    NodeState n;
    n.name = node_name;
    nodes.push_back(std::move(n));
    fanout.emplace_back();
    return static_cast<NodeId>(nodes.size() - 1);
}

void
Netlist::addInverter(NodeId in, NodeId out)
{
    spm_assert(in < nodes.size() && out < nodes.size(), "bad node id");
    spm_assert(nodes[out].driver < 0, "node '", nodes[out].name,
               "' already driven");
    Device d;
    d.kind = DeviceKind::Inverter;
    d.inA = in;
    d.out = out;
    devices.push_back(d);
    const auto idx = static_cast<std::uint32_t>(devices.size() - 1);
    nodes[out].driver = static_cast<std::int32_t>(idx);
    fanout[in].push_back(idx);
}

void
Netlist::addGate(DeviceKind kind, NodeId a, NodeId b, NodeId out)
{
    spm_assert(kind != DeviceKind::PassGate && kind != DeviceKind::Inverter,
               "addGate: use addPassGate/addInverter");
    spm_assert(a < nodes.size() && b < nodes.size() && out < nodes.size(),
               "bad node id");
    spm_assert(nodes[out].driver < 0, "node '", nodes[out].name,
               "' already driven");
    Device d;
    d.kind = kind;
    d.inA = a;
    d.inB = b;
    d.out = out;
    devices.push_back(d);
    const auto idx = static_cast<std::uint32_t>(devices.size() - 1);
    nodes[out].driver = static_cast<std::int32_t>(idx);
    fanout[a].push_back(idx);
    if (b != a)
        fanout[b].push_back(idx);
}

void
Netlist::addPassGate(NodeId in, NodeId ctl, NodeId out)
{
    spm_assert(in < nodes.size() && ctl < nodes.size() && out < nodes.size(),
               "bad node id");
    spm_assert(nodes[out].driver < 0, "node '", nodes[out].name,
               "' already driven");
    Device d;
    d.kind = DeviceKind::PassGate;
    d.inA = in;
    d.ctl = ctl;
    d.out = out;
    devices.push_back(d);
    const auto idx = static_cast<std::uint32_t>(devices.size() - 1);
    nodes[out].driver = static_cast<std::int32_t>(idx);
    nodes[out].dynamic = true;
    fanout[in].push_back(idx);
    fanout[ctl].push_back(idx);
}

void
Netlist::markInput(NodeId node)
{
    spm_assert(node < nodes.size(), "bad node id");
    spm_assert(nodes[node].driver < 0, "input node '", nodes[node].name,
               "' has an internal driver");
    nodes[node].isInput = true;
}

NodeId
Netlist::findNode(const std::string &node_name) const
{
    for (NodeId id = 0; id < nodes.size(); ++id)
        if (nodes[id].name == node_name)
            return id;
    return invalidNode;
}

void
Netlist::forceStuckAt(NodeId node, LogicValue v, Picoseconds now)
{
    spm_assert(node < nodes.size(), "bad node id");
    NodeState &n = nodes[node];
    n.stuck = false; // let the forced write through
    n.lastRefresh = now;
    setNodeValue(node, v);
    n.stuck = true;
}

void
Netlist::clearStuckAt(NodeId node)
{
    spm_assert(node < nodes.size(), "bad node id");
    nodes[node].stuck = false;
    // The node re-evaluates from its driver on the next fanout pass.
    if (nodes[node].driver >= 0)
        worklist.push_back(
            static_cast<std::uint32_t>(nodes[node].driver));
}

std::size_t
Netlist::stuckCount() const
{
    std::size_t n = 0;
    for (const NodeState &s : nodes)
        n += s.stuck ? 1 : 0;
    return n;
}

std::vector<NodeId>
Netlist::stuckNodes() const
{
    std::vector<NodeId> out;
    for (NodeId id = 0; id < nodes.size(); ++id)
        if (nodes[id].stuck)
            out.push_back(id);
    return out;
}

void
Netlist::setInput(NodeId node, LogicValue v, Picoseconds now)
{
    spm_assert(node < nodes.size(), "bad node id");
    spm_assert(nodes[node].isInput, "setInput on non-input node '",
               nodes[node].name, "'");
    if (tap)
        tap->onSetInput(node, v);
    nodes[node].lastRefresh = now;
    if (nodes[node].stuck || nodes[node].value == v)
        return;
    nodes[node].value = v;
    scheduleFanout(node);
}

void
Netlist::scheduleFanout(NodeId node)
{
    // Duplicates on the worklist are harmless: device evaluation is
    // idempotent, and settle() bounds total work.
    for (std::uint32_t dev : fanout[node])
        worklist.push_back(dev);
}

void
Netlist::setNodeValue(NodeId node, LogicValue v)
{
    if (nodes[node].stuck || nodes[node].value == v)
        return;
    nodes[node].value = v;
    scheduleFanout(node);
}

void
Netlist::evaluateDevice(std::size_t dev_idx, Picoseconds now)
{
    ++evals;
    const Device &d = devices[dev_idx];
    if (d.kind == DeviceKind::PassGate) {
        const LogicValue ctl = nodes[d.ctl].value;
        if (ctl == LogicValue::H) {
            nodes[d.out].lastRefresh = now;
            setNodeValue(d.out, nodes[d.inA].value);
        } else if (ctl == LogicValue::X) {
            // An undefined clock could either conduct or not: the
            // stored value becomes unknown.
            setNodeValue(d.out, LogicValue::X);
        }
        // ctl == L: transistor off; the output retains its charge.
        return;
    }
    const LogicValue a = nodes[d.inA].value;
    const LogicValue b =
        d.inB == invalidNode ? LogicValue::X : nodes[d.inB].value;
    nodes[d.out].lastRefresh = now;
    setNodeValue(d.out, Device::evalGate(d.kind, a, b));
}

void
Netlist::settle(Picoseconds now)
{
    if (tap)
        tap->onSettle();
    // Bound the number of evaluations to detect oscillating feedback
    // (which the paper's purely feed-forward cells never produce).
    const std::uint64_t limit =
        64 + 16ULL * devices.size() * (devices.size() + 1);
    std::uint64_t steps = 0;
    while (!worklist.empty()) {
        const std::uint32_t dev = worklist.back();
        worklist.pop_back();
        evaluateDevice(dev, now);
        if (++steps > limit)
            spm_panic("netlist '", netName, "' failed to settle (", steps,
                      " evaluations; oscillating feedback?)");
    }
}

std::size_t
Netlist::decayCharge(Picoseconds now, Picoseconds retention_ps)
{
    std::size_t decayed = 0;
    for (NodeId id = 0; id < nodes.size(); ++id) {
        NodeState &n = nodes[id];
        if (!n.dynamic || n.stuck || n.value == LogicValue::X)
            continue;
        // A dynamic node is only storing (not driven) while its pass
        // transistor is off.
        const Device &drv = devices[static_cast<std::size_t>(n.driver)];
        if (nodes[drv.ctl].value == LogicValue::H)
            continue;
        if (now > n.lastRefresh && now - n.lastRefresh > retention_ps) {
            if (tap)
                tap->onDecay(id);
            n.value = LogicValue::X;
            scheduleFanout(id);
            ++decayed;
        }
    }
    if (decayed > 0)
        settle(now);
    return decayed;
}

LogicValue
Netlist::value(NodeId node) const
{
    spm_assert(node < nodes.size(), "bad node id");
    return nodes[node].value;
}

bool
Netlist::boolValue(NodeId node) const
{
    const LogicValue v = value(node);
    spm_assert(v != LogicValue::X, "node '", nodes[node].name,
               "' is X, not a definite level");
    return v == LogicValue::H;
}

const std::string &
Netlist::nodeName(NodeId node) const
{
    spm_assert(node < nodes.size(), "bad node id");
    return nodes[node].name;
}

std::int32_t
Netlist::driverOf(NodeId node) const
{
    spm_assert(node < nodes.size(), "bad node id");
    return nodes[node].driver;
}

std::size_t
Netlist::readerCount(NodeId node) const
{
    spm_assert(node < nodes.size(), "bad node id");
    return fanout[node].size();
}

bool
Netlist::isInputNode(NodeId node) const
{
    spm_assert(node < nodes.size(), "bad node id");
    return nodes[node].isInput;
}

bool
Netlist::isDynamicNode(NodeId node) const
{
    spm_assert(node < nodes.size(), "bad node id");
    return nodes[node].dynamic;
}

unsigned
Netlist::transistorCount() const
{
    unsigned total = 0;
    for (const Device &d : devices)
        total += Device::transistorCount(d.kind);
    return total;
}

std::size_t
Netlist::countKind(DeviceKind kind) const
{
    std::size_t n = 0;
    for (const Device &d : devices)
        n += d.kind == kind ? 1 : 0;
    return n;
}

} // namespace spm::gate
