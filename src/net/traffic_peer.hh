/**
 * @file
 * Ideal remote host terminating one Ethernet link.
 *
 * The paper's experiments used a tuned Opteron running native Linux that
 * "could easily saturate two NICs both transmitting and receiving so
 * that it would never be the bottleneck".  TrafficPeer is the faithful
 * model of that role: an infinitely fast sink for transmit experiments
 * and a line-rate source of MSS frames (round-robin across the guests' MACs)
 * for receive experiments.  Its workload is one of the two shapes a
 * WorkloadSpec holds: the saturating source runs here, and Poisson RPC
 * classes run on a WorkloadEngine bound to this peer's port.
 */

#ifndef CDNA_NET_TRAFFIC_PEER_HH
#define CDNA_NET_TRAFFIC_PEER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/fabric.hh"
#include "net/frame_builder.hh"
#include "net/packet.hh"
#include "net/transport/tcp.hh"
#include "net/workload/workload_spec.hh"
#include "sim/sim_object.hh"

namespace cdna::net {

namespace workload {
class WorkloadEngine;
} // namespace workload

class TrafficPeer : public sim::SimObject, public LinkEndpoint
{
  public:
    /**
     * @param ctx     simulation context
     * @param name    component name
     * @param fabric  the fabric this peer binds a port on
     */
    TrafficPeer(sim::SimContext &ctx, std::string name, Fabric &fabric);
    ~TrafficPeer() override;

    /**
     * Configure this endpoint from one declarative WorkloadSpec: knob
     * optionals that are set are applied (unset ones leave the current
     * setting alone), a saturating class starts the line-rate source,
     * and RPC classes are handed to a WorkloadEngine bound to this
     * peer's port.  This is the single configuration entry point; it
     * has no call-order constraints.
     */
    void applyWorkload(const workload::WorkloadSpec &spec);

    /** The workload engine, or null when no RPC class was applied. */
    workload::WorkloadEngine *engine() { return engine_.get(); }
    const workload::WorkloadEngine *engine() const { return engine_.get(); }

    /** MAC address the peer sources traffic from. */
    MacAddr mac() const { return mac_; }

    /** The fabric port this peer is bound to. */
    Port &port() { return *port_; }
    const Port &port() const { return *port_; }

    /** Stop sourcing (pending frame still completes). */
    void stopSource();

    /** The transport endpoint, or null in open-loop mode. */
    transport::TcpEndpoint *tcp() { return tcp_.get(); }

    /** Frames dropped by the modeled checksum check. */
    std::uint64_t rxDropsBadCsum() const { return nRxBadCsum_.value(); }

    /** Frames and payload bytes absorbed by the sink side. */
    std::uint64_t framesReceived() const { return nRxFrames_.value(); }
    std::uint64_t payloadReceived() const { return nRxPayload_.value(); }

    /**
     * Goodput basis: in-order bytes delivered past the transport under
     * TCP (retransmitted duplicates excluded); identical to
     * payloadReceived() in open-loop mode.
     */
    std::uint64_t
    payloadDelivered() const
    {
        return tcp_ ? tcp_->deliveredBytes() : nRxPayload_.value();
    }

    /** End-to-end latency of received data frames (stack entry to peer
     *  delivery). */
    const sim::LatencyRecorder &latency() const { return latency_; }

    /** Payload received from @p src (0 when none). */
    std::uint64_t receivedFrom(MacAddr src) const;

    void receiveFrame(Packet pkt) override;

  private:
    /**
     * Everything the peer keeps per remote MAC, in one flat record: the
     * source's window toward it, the ACK debt of the data it sent, and
     * its received payload.
     */
    struct Remote
    {
        MacAddr mac;
        std::uint64_t sent = 0;    //!< wire frames sent toward it
        std::uint64_t acked = 0;   //!< of those, frames it ACKed
        std::uint64_t ackDebt = 0; //!< its data frames not yet ACKed
        std::uint64_t rxBytes = 0; //!< payload received from it
        /** The source sent toward it or checked its room: only such a
         *  window clamps ACKs and is reset by the retry timer. */
        bool windowed = false;
    };

    void sendNext();
    void enableTcpImpl();
    void startSourceImpl(std::vector<MacAddr> dsts);
    /** Index of @p mac's record, made on first sight. */
    std::uint32_t remoteIndex(MacAddr mac);
    /** Count @p bytes of payload received from @p src. */
    Remote &countReceived(MacAddr src, std::uint64_t bytes);

    Port *port_ = nullptr;
    MacAddr mac_;
    FrameBuilder frames_;
    std::vector<Remote> remotes_;
    /** Index into remotes_ of each MAC's record. */
    MacTable<std::uint32_t> byMac_;
    /** Round-robin destinations as indices into remotes_: a MAC listed
     *  twice shares one record, so one window. */
    std::vector<std::uint32_t> dsts_;
    std::size_t rrIndex_ = 0;
    bool sourcing_ = false;
    bool sendInProgress_ = false;
    std::uint32_t ackEvery_ = 0;
    std::uint32_t windowFrames_ = 128;
    sim::EventId retryTimer_ = sim::kInvalidEvent;
    sim::Time retryDelay_ = sim::microseconds(500);
    sim::LatencyRecorder latency_;

    std::unique_ptr<transport::TcpEndpoint> tcp_;
    std::unique_ptr<workload::WorkloadEngine> engine_;

    sim::Counter nRxFrames_{stats(), "rx_frames"};
    sim::Counter nRxPayload_{stats(), "rx_payload_bytes"};
    sim::Counter nTxFrames_{stats(), "tx_frames"};
    sim::Counter nRxDups_{stats(), "rx_duplicates"};
    sim::Counter nRxBadCsum_{stats(), "rx_drops_bad_csum"};
};

} // namespace cdna::net

#endif // CDNA_NET_TRAFFIC_PEER_HH
