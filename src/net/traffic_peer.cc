#include "net/traffic_peer.hh"

#include <algorithm>
#include <utility>

#include "net/workload/workload_engine.hh"
#include "sim/assert.hh"

namespace cdna::net {

TrafficPeer::TrafficPeer(sim::SimContext &ctx, std::string name,
                         Fabric &fabric)
    : sim::SimObject(ctx, std::move(name))
{
    // Derive the peer's MAC from its name so it is stable per component
    // regardless of construction order; peers live in a reserved id range
    // that never collides with guest MACs.
    std::uint32_t h = 2166136261u;
    for (char c : this->name())
        h = (h ^ static_cast<unsigned char>(c)) * 16777619u;
    mac_ = MacAddr::fromId(0x00FE0000u + (h & 0xFFFFu));
    frames_ = FrameBuilder(mac_);
    port_ = &fabric.bind(*this);
}

// Out of line: WorkloadEngine is incomplete in the header.
TrafficPeer::~TrafficPeer() = default;

void
TrafficPeer::applyWorkload(const workload::WorkloadSpec &spec)
{
    if (spec.ackEvery)
        ackEvery_ = *spec.ackEvery;
    if (spec.sourceWindow)
        windowFrames_ = *spec.sourceWindow;
    if (spec.tcp)
        enableTcpImpl();

    // A saturating class is the line-rate source and runs on the peer's
    // own machinery; RPC classes run on the engine.
    workload::WorkloadSpec rpc_spec;
    rpc_spec.targets = spec.targets;
    rpc_spec.seed = spec.seed;
    for (const auto &fc : spec.classes) {
        if (fc.kind == workload::FlowKind::kSaturating)
            startSourceImpl(spec.targets);
        else
            rpc_spec.classes.push_back(fc);
    }
    if (!rpc_spec.classes.empty()) {
        SIM_ASSERT(!engine_, "RPC workload classes applied twice");
        engine_ = std::make_unique<workload::WorkloadEngine>(
            ctx(), name() + ".wl", *port_, mac_, std::move(rpc_spec));
    }
}

void
TrafficPeer::enableTcpImpl()
{
    SIM_ASSERT(!tcp_, "enableTcp called twice");
    tcp_ = std::make_unique<transport::TcpEndpoint>(ctx(), name() + ".tcp");

    // Data segments self-clock off the wire: refuse while the link is
    // busy, and the wire-end serialized callback pumps the next one.
    tcp_->setSegmentTx([this](const transport::TcpEndpoint::SegmentOut &so) {
        if (port_->busy())
            return false;
        nTxFrames_.inc();
        port_->send(frames_.tcpSegment(so, now()), 0,
                    [this] { tcp_->pump(); });
        return true;
    });

    // Pure ACKs are tiny; let them queue on the link like open-loop
    // ACKs do rather than stalling the delayed-ACK clock.
    tcp_->setAckTx([this](const transport::TcpEndpoint::AckOut &ao) {
        port_->send(frames_.tcpAck(ao, now()));
        return true;
    });

    tcp_->setDeliver([this](const Packet &pkt, std::uint64_t bytes) {
        countReceived(pkt.src, bytes);
        if (pkt.created > 0)
            latency_.record(now() - pkt.created);
    });
}

std::uint32_t
TrafficPeer::remoteIndex(MacAddr mac)
{
    if (const std::uint32_t *index = byMac_.find(mac))
        return *index;
    const auto index = static_cast<std::uint32_t>(remotes_.size());
    remotes_.push_back(Remote{mac});
    byMac_.set(mac, index);
    return index;
}

TrafficPeer::Remote &
TrafficPeer::countReceived(MacAddr src, std::uint64_t bytes)
{
    Remote &r = remotes_[remoteIndex(src)];
    r.rxBytes += bytes;
    return r;
}

std::uint64_t
TrafficPeer::receivedFrom(MacAddr src) const
{
    const std::uint32_t *index = byMac_.find(src);
    return index ? remotes_[*index].rxBytes : 0;
}

void
TrafficPeer::startSourceImpl(std::vector<MacAddr> dsts)
{
    dsts_.clear();
    for (MacAddr dst : dsts)
        dsts_.push_back(remoteIndex(dst));
    rrIndex_ = 0;
    if (dsts_.empty())
        return;
    if (tcp_) {
        // Closed-loop source: one unlimited Reno flow per destination;
        // guests' ACKs clock the data out.
        sourcing_ = true;
        for (std::size_t i = 0; i < dsts.size(); ++i)
            tcp_->openSender(0x1000 + i, dsts[i], /*unlimited=*/true);
        tcp_->pump();
        return;
    }
    if (!sourcing_) {
        sourcing_ = true;
        sendNext();
    }
}

void
TrafficPeer::stopSource()
{
    sourcing_ = false;
}

void
TrafficPeer::sendNext()
{
    if (!sourcing_ || sendInProgress_)
        return;

    // Pick the next destination with window room (round-robin).
    const bool flow_control = ackEvery_ != 0 && windowFrames_ != 0;
    Remote *dst = nullptr;
    for (std::size_t tried = 0; tried < dsts_.size(); ++tried) {
        Remote &cand = remotes_[dsts_[rrIndex_]];
        if (++rrIndex_ == dsts_.size())
            rrIndex_ = 0;
        if (flow_control) {
            cand.windowed = true;
            if (cand.sent - cand.acked >= windowFrames_)
                continue;
        }
        dst = &cand;
        break;
    }
    if (!dst) {
        // Every destination's window is full: wait for ACKs, with an
        // RTO-style retry that re-opens the windows (retransmission).
        // The RTO backs off exponentially while no progress is made, so
        // a persistently slow receiver throttles the source instead of
        // being buried in retransmissions.
        if (retryTimer_ == sim::kInvalidEvent) {
            retryTimer_ = events().schedule(retryDelay_, [this] {
                retryTimer_ = sim::kInvalidEvent;
                retryDelay_ = std::min<sim::Time>(retryDelay_ * 2,
                                                  sim::milliseconds(16));
                for (Remote &r : remotes_)
                    if (r.windowed)
                        r.sent = r.acked;
                sendNext();
            });
        }
        return;
    }

    Packet pkt = frames_.data(dst->mac, kMss, 0, now());
    dst->windowed = true;
    dst->sent += pkt.wireFrames();
    nTxFrames_.inc();
    sendInProgress_ = true;
    port_->send(std::move(pkt), 0, [this] {
        sendInProgress_ = false;
        sendNext();
    });
}

void
TrafficPeer::receiveFrame(Packet pkt)
{
    nRxFrames_.inc(pkt.wireFrames());
    if (!pkt.intact) {
        // Checksum check fails: the frame occupied the wire but never
        // reaches the transport, so the sender must retransmit it.
        nRxBadCsum_.inc();
        return;
    }
    if (pkt.rpcResp && engine_) {
        // A guest's answer to one of our requests: route to the engine
        // for request-latency accounting (RPC frames bypass the TCP
        // demux -- they are datagrams regardless of transport mode).
        if (pkt.duplicated) {
            nRxDups_.inc();
            return;
        }
        nRxPayload_.inc(pkt.payloadBytes);
        countReceived(pkt.src, pkt.payloadBytes);
        engine_->onRpcResponse(pkt);
        return;
    }
    if (tcp_) {
        if (pkt.duplicated)
            // Counted, but still handed to the transport: the sequence
            // check there discards it (emitting a duplicate ACK).
            nRxDups_.inc();
        if (pkt.tcpData) {
            nRxPayload_.inc(pkt.payloadBytes); // raw wire throughput
            tcp_->onPacket(pkt);
        } else if (pkt.tcpAck) {
            tcp_->onPacket(pkt);
        }
        return;
    }
    if (pkt.duplicated) {
        // Injected duplicate: TCP discards it, so it contributes
        // nothing to goodput, latency, windows, or the ACK clock.
        nRxDups_.inc();
        return;
    }
    nRxPayload_.inc(pkt.payloadBytes);
    Remote &src = countReceived(pkt.src, pkt.payloadBytes);

    if (pkt.payloadBytes > 0 && pkt.created > 0)
        latency_.record(now() - pkt.created);

    // An incoming ACK opens the sender-side window toward its source.
    // (sendNext() adds no record, so src stays valid; an ACK carries no
    // payload, so the data branch below does not run after it anyway.)
    if (pkt.payloadBytes == 0 && sourcing_) {
        retryDelay_ = sim::microseconds(500); // progress: reset the RTO
        src.acked += ackEvery_;
        if (src.windowed && src.acked > src.sent)
            src.acked = src.sent;
        sendNext();
    }

    // TCP reverse path: ACK data frames (never ACK an ACK).
    if (ackEvery_ != 0 && pkt.payloadBytes > 0) {
        std::uint64_t &debt = src.ackDebt;
        debt += pkt.wireFrames();
        while (debt >= ackEvery_) {
            debt -= ackEvery_;
            port_->send(frames_.ack(pkt.src, now()));
        }
    }
}

} // namespace cdna::net
