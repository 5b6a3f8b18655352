/**
 * @file
 * Kernel network stack model.
 *
 * Charges the OS-mode CPU costs of moving data between an application
 * and a NetDevice: segmentation (TSO segments when the device supports
 * them, MSS frames otherwise), per-byte copy costs, and receive
 * delivery.  Checksum offload and scatter/gather I/O are assumed
 * enabled, as in all the paper's experiments.
 */

#ifndef CDNA_OS_NET_STACK_HH
#define CDNA_OS_NET_STACK_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "net/frame_builder.hh"
#include "net/transport/tcp.hh"
#include "os/net_device.hh"
#include "vmm/domain.hh"

namespace cdna::os {

class NetStack : public sim::SimObject
{
  public:
    NetStack(sim::SimContext &ctx, std::string name, vmm::Domain &dom,
             NetDevice &dev);

    /** Destination MAC for transmitted packets (the remote peer). */
    void setDefaultDst(net::MacAddr dst) { dst_ = dst; }

    /**
     * Switch the stack to the closed-loop TCP transport: sendBurst
     * data enters per-flow Reno sender flows (segments carry sequence
     * numbers, ACKs open the app window), and received segments are
     * sequenced, duplicate-ACKed, and delivered in order.  Must be
     * called before any traffic flows.
     */
    void enableTcp();

    /** The transport endpoint, or null in open-loop mode. */
    net::transport::TcpEndpoint *tcp() { return tcp_.get(); }

    /**
     * Transmit @p bytes of stream data drawn from the (reused)
     * buffer @p pages.  Charges OS segmentation/copy costs, then hands
     * packets to the device; packets that do not fit are queued in the
     * stack and flushed when the device reports space.
     * @param flow_id connection identifier (per-flow stats)
     */
    void sendBurst(std::uint64_t bytes, std::uint64_t flow_id,
                   const std::vector<mem::PageNum> &pages);

    /** Fires per guest-visible transmit completion, with byte count. */
    void setTxCompleteHandler(std::function<void(std::uint64_t)> fn)
    {
        txComplete_ = std::move(fn);
    }

    /** Fires when received data reaches user space. */
    void setRxDeliverHandler(
        std::function<void(std::uint64_t bytes, std::uint32_t pkts)> fn)
    {
        rxDeliver_ = std::move(fn);
    }

    /**
     * Fires on every end-to-end progress signal: transmit completion
     * (ACK-clocked under TCP) or receive delivery.  The availability
     * layer uses it to timestamp the first packet after an outage.
     */
    void setProgressHook(std::function<void()> fn)
    {
        progress_ = std::move(fn);
    }

    /**
     * Fires per RPC request frame (Packet::rpcReq) once the request
     * reaches user space through the normal batched RX-cost path; the
     * rpc-serving application answers with sendRpcResponse().  A
     * separate slot from setRxDeliverHandler, which stays the bulk
     * byte-count delivery signal.
     */
    void setRpcHandler(std::function<void(const net::Packet &)> fn)
    {
        rpcHandler_ = std::move(fn);
    }

    /**
     * Transmit the response to @p req (net::workload::kRpcResponseBytes,
     * under req.flowId) back to req.src.  Responses are datagrams:
     * they take the open-loop packet path even in TCP transport mode,
     * paying the usual OS segmentation/copy costs.
     */
    void sendRpcResponse(const net::Packet &req);

    /**
     * Kill the stack with its domain: cancel transport timers, drop
     * the TX backlog and blocked writes, and ignore all later send and
     * receive activity.  Closes the --kill-guest x --transport tcp
     * hazard where an armed RTO fires into a dead domain.
     */
    void shutdown();

    std::uint64_t txBytes() const { return nTxBytes_.value(); }
    std::uint64_t rxBytes() const { return nRxBytes_.value(); }
    std::uint64_t rxPackets() const { return nRxPkts_.value(); }
    /** Frames dropped by the software checksum check. */
    std::uint64_t rxDropsBadCsum() const { return nRxBadCsum_.value(); }

    /** Current TX backlog depth (packets queued behind a full device). */
    std::uint64_t txBacklogDepth() const { return txBacklog_.size(); }
    /** High-watermark of the TX backlog over the stack's lifetime. */
    std::uint64_t txBacklogPeak() const { return txBacklogPeak_; }

    /** Wire-to-app latency of received data frames. */
    const sim::LatencyRecorder &rxLatency() const { return rxLatency_; }

    NetDevice &device() { return dev_; }
    vmm::Domain &domain() { return dom_; }

  private:
    /** Frames toward @p dst carrying bytes [0, @p bytes) of @p pages. */
    std::shared_ptr<std::vector<net::Packet>>
    buildPackets(std::uint64_t bytes, std::uint64_t flow_id, net::MacAddr dst,
                 const std::vector<mem::PageNum> &pages);
    /** OS time to form @p frames frames carrying @p bytes. */
    sim::Time txCost(std::uint64_t frames, std::uint64_t bytes) const;
    void pushToDevice();
    void noteBacklogDepth();
    void onRxPacket(net::Packet pkt);
    void collectRxBatch();
    void scheduleRxCollect();
    void sendBurstTcp(std::uint64_t bytes, std::uint64_t flow_id,
                      const std::vector<mem::PageNum> &pages);

    vmm::Domain &dom_;
    NetDevice &dev_;
    net::MacAddr dst_;
    net::FrameBuilder frames_;

    std::deque<net::Packet> txBacklog_;

    std::uint64_t rxBatchBytes_ = 0;
    std::uint32_t rxBatchPkts_ = 0;  //!< data frames in the batch
    std::uint32_t rxBatchAcks_ = 0;  //!< pure ACKs in the batch
    std::vector<sim::Time> rxBatchCreated_; //!< origin stamps for latency
    std::vector<net::Packet> rpcBatch_;     //!< RPC requests in the batch
    sim::LatencyRecorder rxLatency_;
    bool rxCollectorPending_ = false;
    std::uint64_t ackDebt_ = 0;
    net::MacAddr ackDst_;

    std::function<void(std::uint64_t)> txComplete_;
    std::function<void(std::uint64_t, std::uint32_t)> rxDeliver_;
    std::function<void(const net::Packet &)> rpcHandler_;
    std::function<void()> progress_;
    bool dead_ = false;

    /** Lazily allocated response buffer (one TSO segment's pages). */
    std::vector<mem::PageNum> rpcBuf_;
    /** RPC response bytes queued but not yet completed by the device
     *  (netted out of the application's tx-complete signal). */
    std::uint64_t rpcTxPending_ = 0;

    // TCP transport mode (null = open loop).
    std::unique_ptr<net::transport::TcpEndpoint> tcp_;
    std::map<std::uint64_t, std::vector<mem::PageNum>> flowBufs_;
    std::map<std::uint64_t, std::uint64_t> pendingOffer_;

    std::uint64_t txBacklogPeak_ = 0;

    sim::Counter nTxBytes_{stats(), "tx_bytes"};
    sim::Counter nRxBytes_{stats(), "rx_bytes"};
    sim::Counter nRxPkts_{stats(), "rx_packets"};
    sim::Counter nTxStalls_{stats(), "tx_stalls"};
    sim::Counter nRxDups_{stats(), "rx_duplicates"};
    sim::Counter nRxBadCsum_{stats(), "rx_drops_bad_csum"};
};

} // namespace cdna::os

#endif // CDNA_OS_NET_STACK_HH
