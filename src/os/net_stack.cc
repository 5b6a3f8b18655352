#include "os/net_stack.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "core/cost_model.hh"
#include "net/workload/workload_spec.hh"
#include "sim/assert.hh"

namespace cdna::os {

using core::CostModel;

namespace {

/**
 * The SG list of stream bytes [off, off + len) in @p pages, a reused
 * buffer the stream runs round.
 */
mem::SgList
bufferSg(const std::vector<mem::PageNum> &pages, std::uint64_t off,
         std::uint32_t len)
{
    const std::uint64_t buf_bytes = pages.size() * mem::kPageSize;
    mem::SgList sg;
    off %= buf_bytes;
    while (len > 0) {
        std::uint64_t in_page = off % mem::kPageSize;
        auto chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(len, mem::kPageSize - in_page));
        sg.push_back({mem::addrOf(pages[off / mem::kPageSize]) + in_page,
                      chunk});
        off = (off + chunk) % buf_bytes;
        len -= chunk;
    }
    return sg;
}

} // namespace

NetStack::NetStack(sim::SimContext &ctx, std::string name, vmm::Domain &dom,
                   NetDevice &dev)
    : sim::SimObject(ctx, std::move(name)),
      dom_(dom),
      dev_(dev),
      frames_(dev.mac())
{
    dev_.setRxHandler([this](net::Packet pkt) { onRxPacket(std::move(pkt)); });
    dev_.setTxCompleteHandler([this](std::uint64_t bytes) {
        if (progress_)
            progress_();
        // RPC response bytes complete through the same device signal
        // but were never part of the application's send window; net
        // them out so the window accounting only sees its own sends.
        std::uint64_t rpc = std::min(bytes, rpcTxPending_);
        rpcTxPending_ -= rpc;
        bytes -= rpc;
        if (bytes > 0 && txComplete_)
            txComplete_(bytes);
    });
    dev_.setTxSpaceHandler([this] { pushToDevice(); });
}

void
NetStack::shutdown()
{
    if (dead_)
        return;
    dead_ = true;
    if (tcp_)
        tcp_->shutdown();
    txBacklog_.clear();
    pendingOffer_.clear();
    rxBatchBytes_ = 0;
    rxBatchPkts_ = 0;
    rxBatchAcks_ = 0;
    rxBatchCreated_.clear();
    rpcBatch_.clear();
    ackDebt_ = 0;
}

std::shared_ptr<std::vector<net::Packet>>
NetStack::buildPackets(std::uint64_t bytes, std::uint64_t flow_id,
                       net::MacAddr dst,
                       const std::vector<mem::PageNum> &pages)
{
    SIM_ASSERT(!pages.empty(), "no buffer pages");
    const std::uint64_t buf_bytes = pages.size() * mem::kPageSize;
    SIM_ASSERT(bytes <= buf_bytes, "burst larger than buffer");

    std::uint32_t unit = dev_.tsoCapable()
        ? std::min<std::uint32_t>(net::kMaxTsoBytes, static_cast<std::uint32_t>(buf_bytes))
        : net::kMss;

    auto out = std::make_shared<std::vector<net::Packet>>();
    std::uint64_t off = 0;
    while (off < bytes) {
        auto len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(unit, bytes - off));
        net::Packet pkt = frames_.data(dst, len, flow_id, now());
        pkt.hostSg = bufferSg(pages, off, len);
        out->push_back(std::move(pkt));
        off += len;
    }
    return out;
}

sim::Time
NetStack::txCost(std::uint64_t frames, std::uint64_t bytes) const
{
    return static_cast<sim::Time>(frames) * CostModel::stackTxPerPacket +
           static_cast<sim::Time>(CostModel::stackTxPerByteNs *
                                  static_cast<double>(bytes) *
                                  sim::kNanosecond);
}

void
NetStack::sendBurst(std::uint64_t bytes, std::uint64_t flow_id,
                    const std::vector<mem::PageNum> &pages)
{
    if (dead_)
        return;
    if (tcp_) {
        sendBurstTcp(bytes, flow_id, pages);
        return;
    }
    auto pkts = buildPackets(bytes, flow_id, dst_, pages);
    CDNA_TRACE_INSTANT_ARG(ctx().tracer(), traceLane(), "tx_burst", now(),
                           "bytes", bytes);
    dom_.vcpu().post(cpu::Bucket::kOs, txCost(pkts->size(), bytes),
                     [this, pkts, bytes] {
        nTxBytes_.inc(bytes);
        for (auto &p : *pkts)
            txBacklog_.push_back(std::move(p));
        pushToDevice();
    });
}

void
NetStack::pushToDevice()
{
    bool any = false;
    while (!txBacklog_.empty() && dev_.canTransmit()) {
        dev_.transmit(std::move(txBacklog_.front()));
        txBacklog_.pop_front();
        any = true;
    }
    if (!txBacklog_.empty())
        nTxStalls_.inc();
    if (any)
        dev_.flush();
    noteBacklogDepth();
}

void
NetStack::noteBacklogDepth()
{
    // Residual queue after a flush attempt: what the device's ring
    // could not absorb.  The high-watermark is the satellite metric
    // exported into the report.
    std::uint64_t depth = txBacklog_.size();
    txBacklogPeak_ = std::max(txBacklogPeak_, depth);
}

void
NetStack::onRxPacket(net::Packet pkt)
{
    if (dead_)
        return;
    if (!pkt.intact) {
        // Software checksum check fails: the frame consumed NIC and
        // driver resources but never reaches the transport layer, so
        // under TCP the sender must retransmit it.
        nRxBadCsum_.inc();
        return;
    }
    if (pkt.rpcReq) {
        // RPC requests are datagrams regardless of transport mode and
        // join the normal batched RX-cost path.  No ACK debt: the
        // response itself acknowledges the request.
        if (pkt.duplicated) {
            nRxDups_.inc();
            return;
        }
        rxBatchBytes_ += pkt.payloadBytes;
        rxBatchPkts_ += 1;
        if (pkt.created > 0)
            rxBatchCreated_.push_back(pkt.created);
        rpcBatch_.push_back(std::move(pkt));
        scheduleRxCollect();
        return;
    }
    if (tcp_) {
        if (pkt.duplicated)
            // Counted, but still handed to the transport: the sequence
            // check there discards it (and may emit a duplicate ACK),
            // exactly like a real stack.
            nRxDups_.inc();
        if (pkt.tcpAck)
            rxBatchAcks_ += 1;
        else if (pkt.tcpData)
            rxBatchPkts_ += 1;
        scheduleRxCollect();
        tcp_->onPacket(pkt);
        return;
    }
    if (pkt.duplicated) {
        // TCP sequence check discards injected duplicates before they
        // count toward goodput, latency, or the delayed-ACK clock.
        nRxDups_.inc();
        return;
    }
    if (pkt.payloadBytes == 0) {
        // Pure TCP ACK: cheap to process, never re-acknowledged.
        rxBatchAcks_ += 1;
    } else {
        rxBatchBytes_ += pkt.payloadBytes;
        rxBatchPkts_ += 1;
        ackDebt_ += 1;
        ackDst_ = pkt.src;
        if (pkt.created > 0)
            rxBatchCreated_.push_back(pkt.created);
    }
    scheduleRxCollect();
}

void
NetStack::scheduleRxCollect()
{
    if (rxCollectorPending_)
        return;
    rxCollectorPending_ = true;
    // Zero-cost collector: runs after the driver's delivery task on the
    // same vCPU, so the whole batch is visible when it executes.
    dom_.vcpu().post(cpu::Bucket::kOs, 0, [this] { collectRxBatch(); });
}

void
NetStack::enableTcp()
{
    SIM_ASSERT(!tcp_, "enableTcp called twice");
    tcp_ = std::make_unique<net::transport::TcpEndpoint>(ctx(),
                                                         name() + ".tcp");

    tcp_->setSegmentTx(
        [this](const net::transport::TcpEndpoint::SegmentOut &so) {
            if (!dev_.canTransmit())
                return false;
            auto it = flowBufs_.find(so.flowId);
            SIM_ASSERT(it != flowBufs_.end(), "segment for unknown flow");
            net::Packet pkt = frames_.tcpSegment(so, now());
            pkt.hostSg = bufferSg(it->second, so.seq, so.len);
            dev_.transmit(std::move(pkt));
            dev_.flush();
            if (so.rtx)
                // The original transmission was charged at offer time;
                // a retransmission costs another pass down the stack.
                dom_.vcpu().post(cpu::Bucket::kOs, CostModel::stackTxPerPacket,
                                 [] {});
            return true;
        });

    tcp_->setAckTx([this](const net::transport::TcpEndpoint::AckOut &ao) {
        if (!dev_.canTransmit())
            return false;
        dev_.transmit(frames_.tcpAck(ao, now()));
        dev_.flush();
        dom_.vcpu().post(cpu::Bucket::kOs, CostModel::stackAckTxCost, [] {});
        return true;
    });

    tcp_->setDeliver([this](const net::Packet &pkt, std::uint64_t bytes) {
        // In-order bytes join the RX batch; per-packet costs were
        // already counted when the segment arrived.
        rxBatchBytes_ += bytes;
        if (pkt.created > 0)
            rxBatchCreated_.push_back(pkt.created);
        scheduleRxCollect();
    });

    tcp_->setBufFreed([this](std::uint64_t flow_id, std::uint64_t bytes) {
        // Freed buffer space first completes any blocked socket write,
        // then credits the application's window: under TCP, ACKs (not
        // device completions) signal transmit progress.
        auto it = pendingOffer_.find(flow_id);
        if (it != pendingOffer_.end() && it->second > 0)
            it->second -= tcp_->offer(flow_id, it->second);
        if (progress_)
            progress_();
        if (txComplete_)
            txComplete_(bytes);
    });

    dev_.setTxCompleteHandler([](std::uint64_t) {});
    dev_.setTxSpaceHandler([this] { tcp_->pump(); });
}

void
NetStack::sendBurstTcp(std::uint64_t bytes, std::uint64_t flow_id,
                       const std::vector<mem::PageNum> &pages)
{
    SIM_ASSERT(!pages.empty(), "no buffer pages");
    flowBufs_.try_emplace(flow_id, pages);
    tcp_->openSender(flow_id, dst_);

    // Segmentation cost up front for the whole burst (TSO is bypassed
    // under TCP: every segment is an MSS so loss granularity is real).
    constexpr std::uint64_t seg = net::transport::TcpParams::segmentBytes;
    std::uint64_t nsegs = (bytes + seg - 1) / seg;
    CDNA_TRACE_INSTANT_ARG(ctx().tracer(), traceLane(), "tx_burst", now(),
                           "bytes", bytes);
    dom_.vcpu().post(cpu::Bucket::kOs, txCost(nsegs, bytes),
                     [this, bytes, flow_id] {
        nTxBytes_.inc(bytes);
        std::uint64_t accepted = tcp_->offer(flow_id, bytes);
        if (accepted < bytes)
            // Socket buffer full: the write blocks until ACKs free
            // space (resumed from the BufFreed callback).
            pendingOffer_[flow_id] += bytes - accepted;
    });
}

void
NetStack::collectRxBatch()
{
    rxCollectorPending_ = false;
    if (dead_)
        return;
    std::uint64_t bytes = std::exchange(rxBatchBytes_, 0);
    std::uint32_t pkts = std::exchange(rxBatchPkts_, 0);
    std::uint32_t acks = std::exchange(rxBatchAcks_, 0);
    auto stamps = std::exchange(rxBatchCreated_, {});
    auto rpcs = std::exchange(rpcBatch_, {});
    if (pkts == 0 && acks == 0)
        return;

    // Outgoing ACKs owed for this batch (delayed-ACK style).
    auto acks_out =
        static_cast<std::uint32_t>(ackDebt_ / CostModel::ackPerFrames);
    ackDebt_ %= CostModel::ackPerFrames;

    sim::Time os_cost =
        static_cast<sim::Time>(pkts) * CostModel::stackRxPerPacket +
        static_cast<sim::Time>(acks) * CostModel::stackAckRxCost +
        static_cast<sim::Time>(acks_out) * CostModel::stackAckTxCost +
        static_cast<sim::Time>(CostModel::stackRxPerByteNs *
                               static_cast<double>(bytes) * sim::kNanosecond);
    sim::Time user_cost =
        static_cast<sim::Time>(CostModel::appPerByteNs *
                               static_cast<double>(bytes) * sim::kNanosecond) +
        static_cast<sim::Time>(static_cast<double>(CostModel::appPerRead) *
                               static_cast<double>(bytes) / 65536.0);

    dom_.vcpu().post(cpu::Bucket::kOs, os_cost,
                     [this, bytes, pkts, acks_out, user_cost,
                      stamps = std::move(stamps),
                      rpcs = std::move(rpcs)]() mutable {
        // Emit the owed ACKs toward the data source.
        bool sent = false;
        for (std::uint32_t i = 0; i < acks_out && dev_.canTransmit(); ++i) {
            dev_.transmit(frames_.ack(ackDst_, now()));
            sent = true;
        }
        if (sent)
            dev_.flush();
        if (pkts == 0 && bytes == 0)
            return;
        dom_.vcpu().post(cpu::Bucket::kUser, user_cost,
                         [this, bytes, pkts, stamps = std::move(stamps),
                          rpcs = std::move(rpcs)] {
            nRxBytes_.inc(bytes);
            nRxPkts_.inc(pkts);
            CDNA_TRACE_INSTANT_ARG(ctx().tracer(), traceLane(),
                                   "rx_deliver", now(), "bytes", bytes);
            // Data reaches user space now: record wire-to-app latency.
            for (sim::Time created : stamps)
                rxLatency_.record(now() - created);
            if (progress_)
                progress_();
            if (rxDeliver_)
                rxDeliver_(bytes, pkts);
            if (rpcHandler_)
                for (const auto &req : rpcs)
                    rpcHandler_(req);
        });
    });
}

void
NetStack::sendRpcResponse(const net::Packet &req)
{
    if (dead_)
        return;
    const std::uint64_t bytes = net::workload::kRpcResponseBytes;
    if (rpcBuf_.empty()) {
        std::size_t pages =
            (net::kMaxTsoBytes + mem::kPageSize - 1) / mem::kPageSize;
        rpcBuf_ = dom_.hypervisor().mem().allocOrThrow(dom_.id(), pages);
    }
    auto pkts = buildPackets(bytes, req.flowId, req.src, rpcBuf_);
    for (auto &p : *pkts)
        p.rpcResp = true;
    CDNA_TRACE_INSTANT_ARG(ctx().tracer(), traceLane(), "rpc_response",
                           now(), "bytes", bytes);
    dom_.vcpu().post(cpu::Bucket::kOs, txCost(pkts->size(), bytes),
                     [this, pkts, bytes] {
        if (dead_)
            return;
        nTxBytes_.inc(bytes);
        rpcTxPending_ += bytes;
        for (auto &p : *pkts)
            txBacklog_.push_back(std::move(p));
        pushToDevice();
    });
}

} // namespace cdna::os
