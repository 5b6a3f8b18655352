#include "net/eth_link.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "sim/assert.hh"
#include "sim/fault_injector.hh"

namespace cdna::net {

void
WirePort::attach(sim::SimObject &owner, std::uint32_t index)
{
    owner_ = &owner;
    index_ = index;
    std::string p = "p";
    p += std::to_string(index);
    owner.stats().add(p + "_tx_frames", txFrames_);
    owner.stats().add(p + "_tx_payload_bytes", txPayload_);
    owner.stats().add(p + "_rx_payload_bytes", rxPayload_);
}

void
WirePort::deliver(Packet pkt)
{
    rxPayload_.inc(pkt.payloadBytes);
    if (ep_)
        ep_->receiveFrame(std::move(pkt));
}

bool
WirePort::busy() const
{
    return busyUntil_ > owner_->now();
}

sim::Time
WirePort::send(Packet pkt, sim::Time extra_gap,
               sim::InplaceCallback serialized)
{
    txFrames_.inc(pkt.wireFrames());
    txPayload_.inc(pkt.payloadBytes);

    sim::Time start = std::max(owner_->now(), busyUntil_);
    sim::Time end = start + wireTime(pkt.wireBytes());
    busyUntil_ = end + extra_gap;

    if (serialized) {
        SIM_ASSERT(done_.empty() || end >= done_.back().when,
                   "wire serialization ends out of order");
        done_.push_back({end, owner_->events().reserveSeq(),
                         std::move(serialized)});
        if (done_.size() == 1)
            armDone();
    }

    // Fault injection: the frame still occupied the wire, but it may
    // never reach the far side (drop), arrive with its payload mangled
    // (corrupt: the receiver's checksum check discards it, so it still
    // consumes switch, NIC and stack resources), or arrive twice
    // (duplicate).
    auto fate = sim::FaultInjector::FrameFault::kNone;
    if (sim::FaultInjector *fi = owner_->ctx().faultInjector();
        fi && fi->framesArmed())
        fate = fi->frameFault();
    if (fate == sim::FaultInjector::FrameFault::kDrop)
        return end;
    if (fate == sim::FaultInjector::FrameFault::kCorrupt)
        pkt.intact = false;

    // Packets leave host memory when they hit the wire.
    pkt.hostSg.clear();
    Packet dup;
    if (fate == sim::FaultInjector::FrameFault::kDuplicate) {
        dup = pkt;
        dup.duplicated = true;
    }
    sim::Time arrival = end + kWirePropagation;
    queueArrival(arrival, std::move(pkt));
    if (fate == sim::FaultInjector::FrameFault::kDuplicate)
        // FIFO ties: arrives right behind the original.
        queueArrival(arrival, std::move(dup));
    return end;
}

void
WirePort::queueArrival(sim::Time when, Packet pkt)
{
    SIM_ASSERT(inFlight_.empty() || when >= inFlight_.back().when,
               "wire arrivals out of order");
    inFlight_.push_back({when, owner_->events().reserveSeq(), std::move(pkt)});
    if (inFlight_.size() == 1)
        armArrival();
}

void
WirePort::armDone()
{
    const PendingDone &head = done_.front();
    owner_->events().scheduleAt(head.when, head.seq, [this] { fireDone(); });
}

void
WirePort::armArrival()
{
    const InFlight &head = inFlight_.front();
    owner_->events().scheduleAt(head.when, head.seq,
                                [this] { fireArrival(); });
}

// Each head moves its entry out and arms its successor before running,
// so the callback may send on this port again.

void
WirePort::fireDone()
{
    sim::InplaceCallback fn = std::move(done_.front().fn);
    done_.pop_front();
    if (!done_.empty())
        armDone();
    fn();
}

void
WirePort::fireArrival()
{
    Packet pkt = std::move(inFlight_.front().pkt);
    inFlight_.pop_front();
    if (!inFlight_.empty())
        armArrival();
    arrive(std::move(pkt));
}

EthLink::EthLink(sim::SimContext &ctx, std::string name)
    : sim::SimObject(ctx, std::move(name))
{
    for (std::uint32_t i = 0; i < 2; ++i) {
        ports_[i].attach(*this, i);
        ports_[i].far = &ports_[1 - i];
    }
}

Port &
EthLink::bind(LinkEndpoint &ep)
{
    SIM_ASSERT(bound_ < 2, "EthLink has only two ports");
    LinkPort &p = ports_[bound_++];
    p.connect(ep);
    return p;
}

Port &
EthLink::port(std::uint32_t i)
{
    SIM_ASSERT(i < 2, "EthLink port index out of range");
    return ports_[i];
}

void
EthLink::LinkPort::arrive(Packet pkt)
{
    SIM_ASSERT(far->connected(), "link far endpoint not bound");
    far->deliver(std::move(pkt));
}

} // namespace cdna::net
