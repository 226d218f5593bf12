/**
 * @file
 * The event-driven gate-level netlist simulator.
 *
 * A Netlist holds named nodes and primitive devices and propagates
 * value changes until the circuit settles, exactly as the static NMOS
 * logic between clock edges would. Dynamic storage is modeled
 * faithfully: a node whose only driver is a pass transistor holds
 * charge while the transistor is off, and that charge decays to X if
 * the node is not refreshed within the retention limit -- the paper's
 * "about 1 ms" constraint on dynamic shift registers (Section 3.3.3).
 */

#ifndef SPM_GATE_NETLIST_HH
#define SPM_GATE_NETLIST_HH

#include <cstdint>
#include <string>
#include <vector>

#include "gate/device.hh"
#include "gate/logic.hh"
#include "util/types.hh"

namespace spm::gate
{

struct Levelization;

/** Default dynamic-node retention: about 1 ms (Section 3.3.3). */
inline constexpr Picoseconds defaultRetentionPs = 1'000'000'000;

/**
 * Observer of the netlist's external stimulus stream. The fault
 * grader (fault/wordsim.hh) installs one to capture an exact,
 * replayable trace of a protocol run: every external input write,
 * every settle boundary, and any dynamic-charge decay. Taps see
 * events in execution order, before the event takes effect.
 */
class NetTap
{
  public:
    virtual ~NetTap() = default;

    /** An external setInput() of @p v on @p node (even if unchanged). */
    virtual void onSetInput(NodeId node, LogicValue v) = 0;

    /** A settle() boundary (fires once per settle() call). */
    virtual void onSettle() = 0;

    /** Node @p node lost its dynamic charge to X in decayCharge(). */
    virtual void onDecay(NodeId node) = 0;
};

/**
 * A flat netlist of nodes and devices with event-driven settling.
 *
 * Construction phase: create nodes and attach devices. Each node may
 * have at most one driver. Simulation phase: change external inputs
 * or clock nodes with setInput(), then call settle() to propagate.
 */
class Netlist
{
  public:
    explicit Netlist(std::string netlist_name = "netlist");

    // --- construction ---------------------------------------------------

    /** Create a named node; initial value X (uninitialized charge). */
    NodeId addNode(const std::string &node_name);

    /** Attach a one-input static gate. */
    void addInverter(NodeId in, NodeId out);

    /** Attach a two-input static gate of kind @p kind. */
    void addGate(DeviceKind kind, NodeId a, NodeId b, NodeId out);

    /**
     * Attach a pass transistor: while @p ctl is high, @p out follows
     * @p in and its charge is refreshed; while low, @p out stores
     * charge subject to decay.
     */
    void addPassGate(NodeId in, NodeId ctl, NodeId out);

    /** Mark @p node as an external (primary) input. */
    void markInput(NodeId node);

    /** Look up a node by its addNode() name; invalidNode if absent. */
    NodeId findNode(const std::string &node_name) const;

    // --- simulation -----------------------------------------------------

    /**
     * Drive an external input to @p v at simulated time @p now and
     * propagate the change; @p node must have no internal driver.
     */
    void setInput(NodeId node, LogicValue v, Picoseconds now);

    /** Propagate all pending changes until the circuit settles. */
    void settle(Picoseconds now);

    /**
     * Decay dynamic charge: any node stored through an off pass
     * transistor and not refreshed within @p retention_ps becomes X.
     * Returns the number of nodes that decayed.
     */
    std::size_t decayCharge(Picoseconds now,
                            Picoseconds retention_ps = defaultRetentionPs);

    /**
     * Inject a permanent stuck-at device fault: @p node is forced to
     * @p v and ignores every subsequent driver write, charge decay,
     * and (for input nodes) setInput. This is how cell-level fault
     * campaigns lower onto the gate-level simulator. The change is
     * propagated through the fanout; call settle() afterwards.
     */
    void forceStuckAt(NodeId node, LogicValue v, Picoseconds now);

    /** Remove a stuck-at fault; the node resumes normal operation. */
    void clearStuckAt(NodeId node);

    /** Number of nodes currently stuck. */
    std::size_t stuckCount() const;

    /**
     * The nodes currently stuck, in id order; value() reads each one's
     * forced level. This is how a chip prepared with forceStuckAt is
     * turned into plane force masks (gate/planesim.hh).
     */
    std::vector<NodeId> stuckNodes() const;

    // --- observation ----------------------------------------------------

    /** Current value of @p node. */
    LogicValue value(NodeId node) const;

    /** Convenience: value as bool; panics when the node is X. */
    bool boolValue(NodeId node) const;

    /** Name given at addNode time. */
    const std::string &nodeName(NodeId node) const;

    std::size_t nodeCount() const { return nodes.size(); }
    std::size_t deviceCount() const { return devices.size(); }

    /** Equivalent NMOS transistor count across all devices. */
    unsigned transistorCount() const;

    /** Count of devices of one kind. */
    std::size_t countKind(DeviceKind kind) const;

    /** Total device evaluations performed (simulation effort). */
    std::uint64_t evalCount() const { return evals; }

    /** All devices, for layout generation and reporting. */
    const std::vector<Device> &deviceList() const { return devices; }

    /** Device index driving @p node, or -1 (external/undriven). */
    std::int32_t driverOf(NodeId node) const;

    /** Devices reading @p node (as inA, inB or ctl). */
    std::size_t readerCount(NodeId node) const;

    /** Whether @p node was marked as an external input. */
    bool isInputNode(NodeId node) const;

    /**
     * Attach (or, with nullptr, detach) a stimulus tap. At most one
     * tap may be attached; it must outlive the attachment.
     */
    void setTap(NetTap *t) { tap = t; }

    const std::string &name() const { return netName; }

  private:
    friend Levelization levelize(const Netlist &net,
                                 const std::vector<std::uint8_t> &live);

    struct NodeState
    {
        std::string name;
        LogicValue value = LogicValue::X;
        bool isInput = false;
        /** Device driving this node, or -1. */
        std::int32_t driver = -1;
        /** True when the driver is a pass transistor (dynamic node). */
        bool dynamic = false;
        /** Stuck-at fault: the node ignores writes while set. */
        bool stuck = false;
        /** Last time the node was actively driven/refreshed. */
        Picoseconds lastRefresh = 0;
    };

    void scheduleFanout(NodeId node);
    void evaluateDevice(std::size_t dev_idx, Picoseconds now);
    void setNodeValue(NodeId node, LogicValue v);

    std::string netName;
    std::vector<NodeState> nodes;
    std::vector<Device> devices;
    /** For each node, devices that read it (as inA, inB or ctl). */
    std::vector<std::vector<std::uint32_t>> fanout;
    std::vector<std::uint32_t> worklist;
    std::uint64_t evals = 0;
    NetTap *tap = nullptr;
};

} // namespace spm::gate

#endif // SPM_GATE_NETLIST_HH
