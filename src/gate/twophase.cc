#include "gate/twophase.hh"

namespace spm::gate
{

TwoPhaseClock::TwoPhaseClock(Netlist &net, Picoseconds beat_period_ps,
                             Picoseconds retention_ps)
    : netlist(net), periodPs(beat_period_ps), retentionPs(retention_ps)
{
    phi1Node = netlist.addNode("phi1");
    phi2Node = netlist.addNode("phi2");
    netlist.markInput(phi1Node);
    netlist.markInput(phi2Node);
    quiesce();
}

void
TwoPhaseClock::quiesce()
{
    netlist.setInput(phi1Node, LogicValue::L, timePs);
    netlist.setInput(phi2Node, LogicValue::L, timePs);
    netlist.settle(timePs);
}

void
TwoPhaseClock::tickBeat()
{
    const NodeId phase = phaseAt(beatCount);

    // Rising edge at the beat's first quarter; inputs for this beat
    // must have been applied by the caller before tickBeat().
    timePs += periodPs / 4;
    netlist.setInput(phase, LogicValue::H, timePs);
    netlist.settle(timePs);

    // Falling edge at the third quarter; storage nodes now hold their
    // newly refreshed charge and outputs are stable for neighbors.
    timePs += periodPs / 2;
    netlist.setInput(phase, LogicValue::L, timePs);
    netlist.settle(timePs);

    // Remainder of the beat.
    timePs += periodPs - periodPs / 4 - periodPs / 2;
    ++beatCount;
}

void
TwoPhaseClock::run(Beat n)
{
    for (Beat i = 0; i < n; ++i)
        tickBeat();
}

std::size_t
TwoPhaseClock::stall(Picoseconds duration_ps)
{
    timePs += duration_ps;
    return netlist.decayCharge(timePs, retentionPs);
}

} // namespace spm::gate
