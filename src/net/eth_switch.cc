#include "net/eth_switch.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/assert.hh"

namespace cdna::net {

EthSwitch::EthSwitch(sim::SimContext &ctx, std::string name,
                     std::uint32_t num_ports, EthSwitchParams params)
    : sim::SimObject(ctx, std::move(name)),
      params_(params),
      ports_(num_ports)
{
    SIM_ASSERT(num_ports >= 2, "a switch needs at least two ports");
    for (std::uint32_t i = 0; i < num_ports; ++i) {
        std::string p = "p";
        p += std::to_string(i);
        ports_[i].sw = this;
        ports_[i].attach(*this, i);
        stats().add(p + "_egress_drops", ports_[i].drops);
        stats().add(p + "_egress_drop_bytes", ports_[i].dropBytes);
    }
    stats().add("unrouted_drops", nUnrouted_);
}

Port &
EthSwitch::bind(LinkEndpoint &ep)
{
    SIM_ASSERT(bound_ < ports_.size(), "switch ports exhausted");
    SwitchPort &p = ports_[bound_++];
    p.connect(ep);
    return p;
}

Port &
EthSwitch::port(std::uint32_t i)
{
    SIM_ASSERT(i < ports_.size(), "switch port index out of range");
    return ports_[i];
}

void
EthSwitch::setRoute(MacAddr mac, std::uint32_t port)
{
    SIM_ASSERT(port < ports_.size(), "route to nonexistent port");
    routes_.set(mac, port);
}

std::uint64_t
EthSwitch::totalDrops() const
{
    std::uint64_t n = 0;
    for (const auto &p : ports_)
        n += p.drops.value();
    return n;
}

void
EthSwitch::forward(Packet pkt)
{
    const std::uint32_t *route = routes_.find(pkt.dst);
    if (!route) {
        nUnrouted_.inc();
        return;
    }
    enqueue(ports_[*route], std::move(pkt));
}

void
EthSwitch::enqueue(SwitchPort &out, Packet pkt)
{
    std::uint64_t wb = pkt.wireBytes();
    if (out.qBytes + wb > params_.bufBytesPerPort) {
        out.drops.inc();
        out.dropBytes.inc(wb);
        return;
    }
    out.qBytes += wb;
    out.qPeakBytes = std::max(out.qPeakBytes, out.qBytes);
    out.q.push_back({std::move(pkt), wb, now() + params_.forwardLatency});
    pumpEgress(out);
}

void
EthSwitch::pumpEgress(SwitchPort &out)
{
    if (out.egressBusy || out.q.empty())
        return;
    const QEntry &head = out.q.front();
    out.egressBusy = true;
    sim::Time end =
        std::max(now(), head.readyAt) + wireTime(head.wireBytes);
    events().scheduleAt(end, [&out] { out.sw->finishEgress(out); });
}

void
EthSwitch::finishEgress(SwitchPort &out)
{
    // Store-and-forward buffer accounting: the frame's bytes stay
    // resident until its last byte has left on the egress wire.
    QEntry &head = out.q.front();
    out.qBytes -= head.wireBytes;
    out.egressBusy = false;
    out.onWire.push_back(std::move(head.pkt));
    out.q.pop_front();
    events().scheduleAt(now() + kWirePropagation, [&out] {
        Packet pkt = std::move(out.onWire.front());
        out.onWire.pop_front();
        out.deliver(std::move(pkt));
    });
    pumpEgress(out);
}

// ------------------------------------------------------------- trunk ----

SwitchTrunk::SwitchTrunk(sim::SimContext &ctx, std::string name, Fabric &a,
                         Fabric &b)
    : sim::SimObject(ctx, std::move(name))
{
    stats().add("relayed_a_to_b", endA_.relayed);
    stats().add("relayed_b_to_a", endB_.relayed);
    endA_.trunk = this;
    endB_.trunk = this;
    endA_.other = &endB_;
    endB_.other = &endA_;
    endA_.port = &a.bind(endA_);
    endB_.port = &b.bind(endB_);
}

void
SwitchTrunk::End::receiveFrame(Packet pkt)
{
    // Relay onto the far fabric; the far port's ingress serializer
    // models the uplink wire in that direction.
    relayed.inc();
    other->port->send(std::move(pkt));
}

} // namespace cdna::net
