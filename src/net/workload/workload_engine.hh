/**
 * @file
 * Deterministic workload generator driving a fabric port.
 *
 * The engine owns the stochastic side of a WorkloadSpec: it draws flow
 * arrivals and sizes from the dedicated workload RNG stream
 * (workloadStreamSeed(seed) ^ srcMac.hash(), so co-located engines on
 * one SimContext have independent sequences), starts flows of each
 * class on its TrafficPeer's port or TCP endpoint, and measures
 * request/response RPC latency from request enqueue to the last
 * response byte delivered back at the peer.
 *
 * RPC datapath: the engine emits a request frame (Packet::rpcReq) to a
 * guest MAC; the guest's os::NetStack batches it through the normal
 * RX-cost path and hands it to the rpc-serving TrafficApp, which pays
 * user-time and transmits Packet::rpcResp frames of the requested size
 * back through the guest TX path; TrafficPeer routes responses here.
 * Timeouts are armed per request on the event queue and cancelled on
 * completion.
 */

#ifndef CDNA_NET_WORKLOAD_WORKLOAD_ENGINE_HH
#define CDNA_NET_WORKLOAD_WORKLOAD_ENGINE_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "net/fabric.hh"
#include "net/packet.hh"
#include "net/transport/tcp.hh"
#include "net/workload/workload_spec.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"

namespace cdna::net::workload {

class WorkloadEngine : public sim::SimObject
{
  public:
    /**
     * @param ctx   simulation context
     * @param name  component name (peer name + ".wl")
     * @param port  fabric port frames are sourced on
     * @param src   MAC the engine sources from (the peer's)
     * @param tcp   the peer's transport endpoint, or null (required
     *              only by kBulkTcp classes)
     * @param spec  the workload to run (engine classes only)
     */
    WorkloadEngine(sim::SimContext &ctx, std::string name, Port &port,
                   MacAddr src, transport::TcpEndpoint *tcp,
                   WorkloadSpec spec);

    /** Arm every class's arrival process (idempotent). */
    void start();

    /** A response frame for one of our requests arrived at the peer. */
    void onRpcResponse(const Packet &pkt);

    const WorkloadSpec &spec() const { return spec_; }

    // ------------------------------------------------------ counters ----
    std::uint64_t flowsStarted() const { return nFlowsStarted_.value(); }
    std::uint64_t flowsCompleted() const { return nFlowsCompleted_.value(); }
    std::uint64_t rpcRequests() const { return nRpcRequests_.value(); }
    std::uint64_t rpcResponses() const { return nRpcResponses_.value(); }
    std::uint64_t rpcTimeouts() const { return nRpcTimeouts_.value(); }

    /** Per-request latency (microseconds, request enqueue to last
     *  response byte back at the peer). */
    const sim::SampleStats &rpcLatency() const { return rpcLatency_; }
    const sim::Histogram &rpcLatencyHist() const { return rpcLatencyHist_; }

  private:
    /** One request in flight, keyed by rpcId. */
    struct Outstanding
    {
        std::size_t classIdx = 0;
        sim::Time sentAt = 0;
        std::uint64_t expectedBytes = 0;
        std::uint64_t gotBytes = 0;
        sim::EventId timeout = sim::kInvalidEvent;
    };

    void scheduleNextArrival(std::size_t c);
    void onArrival(std::size_t c);
    void launch(std::size_t c);
    void issueRpc(std::size_t c);
    void startBulkFlow(std::size_t c);
    void sendStreamBurst(std::size_t c);
    void onRpcTimeout(std::uint64_t id);
    void onBufFreed(std::uint64_t flow_id, std::uint64_t bytes);

    std::uint64_t drawSize(const FlowClass &fc);
    sim::Time drawInterarrival(const FlowClass &fc);
    MacAddr nextTarget(std::size_t c);

    Port &port_;
    MacAddr src_;
    transport::TcpEndpoint *tcp_;
    WorkloadSpec spec_;
    sim::Rng rng_;
    bool started_ = false;

    /** Per-class round-robin cursor over spec_.targets. */
    std::vector<std::size_t> rr_;

    std::map<std::uint64_t, Outstanding> outstanding_;
    /** Bulk TCP flows: bytes not yet cumulatively ACKed / not yet
     *  accepted by the send buffer, plus the owning class. */
    std::map<std::uint64_t, std::uint64_t> bulkUnacked_;
    std::map<std::uint64_t, std::uint64_t> bulkPending_;
    std::map<std::uint64_t, std::size_t> bulkClass_;

    std::uint64_t nextRpcId_ = 1;
    std::uint64_t nextBulkFlow_;
    std::uint64_t nextPktId_;

    sim::SampleStats rpcLatency_;
    sim::Histogram rpcLatencyHist_;

    sim::Counter &nFlowsStarted_;
    sim::Counter &nFlowsCompleted_;
    sim::Counter &nRpcRequests_;
    sim::Counter &nRpcResponses_;
    sim::Counter &nRpcTimeouts_;
};

} // namespace cdna::net::workload

#endif // CDNA_NET_WORKLOAD_WORKLOAD_ENGINE_HH
