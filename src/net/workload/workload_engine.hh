/**
 * @file
 * Deterministic Poisson RPC generator driving a fabric port.
 *
 * The engine runs a WorkloadSpec's RPC classes: it draws request
 * arrivals from the dedicated workload RNG stream
 * (workloadStreamSeed(seed) ^ srcMac.hash(), so co-located engines on
 * one SimContext have independent sequences), sends each request on
 * its TrafficPeer's port, and measures request/response latency from
 * request enqueue to the last response byte delivered back at the peer.
 * Saturating classes never reach the engine; the peer runs them.
 *
 * RPC datapath: the engine emits a request frame (Packet::rpcReq) to a
 * guest MAC; the guest's os::NetStack batches it through the normal
 * RX-cost path and hands it to the rpc-serving TrafficApp, which pays
 * user-time and transmits Packet::rpcResp frames of kRpcResponseBytes
 * back through the guest TX path, under the request's flowId;
 * TrafficPeer routes responses here.
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
#include "net/frame_builder.hh"
#include "net/packet.hh"
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
     * @param port  fabric port requests are sent on
     * @param src   MAC the engine sources from (the peer's)
     * @param spec  the workload to run (RPC classes only); each class
     *              with a positive rate and a target starts arriving now
     */
    WorkloadEngine(sim::SimContext &ctx, std::string name, Port &port,
                   MacAddr src, WorkloadSpec spec);

    /** A response frame for one of our requests arrived at the peer. */
    void onRpcResponse(const Packet &pkt);

    // ------------------------------------------------------ counters ----
    std::uint64_t flowsStarted() const { return nFlowsStarted_.value(); }
    std::uint64_t flowsCompleted() const { return nFlowsCompleted_.value(); }
    std::uint64_t rpcRequests() const { return nRpcRequests_.value(); }
    std::uint64_t rpcResponses() const { return nRpcResponses_.value(); }
    std::uint64_t rpcTimeouts() const { return nRpcTimeouts_.value(); }

    /** Per-request latency (request enqueue to last response byte
     *  back at the peer). */
    const sim::LatencyRecorder &rpcLatency() const { return rpcLatency_; }

  private:
    /** One request in flight, keyed by its frames' flowId. */
    struct Outstanding
    {
        sim::Time sentAt = 0;
        std::uint64_t gotBytes = 0;
        sim::EventId timeout = sim::kInvalidEvent;
    };

    void scheduleNextArrival(std::size_t c);
    void onArrival(std::size_t c);
    void onRpcTimeout(std::uint64_t id);
    MacAddr nextTarget(std::size_t c);

    Port &port_;
    WorkloadSpec spec_;
    sim::Rng rng_;

    /** Per-class round-robin cursor over spec_.targets. */
    std::vector<std::size_t> rr_;

    std::map<std::uint64_t, Outstanding> outstanding_;

    std::uint64_t nextRpcId_ = 1;
    FrameBuilder frames_;

    sim::LatencyRecorder rpcLatency_;

    sim::Counter nFlowsStarted_{stats(), "flows_started"};
    sim::Counter nFlowsCompleted_{stats(), "flows_completed"};
    sim::Counter nRpcRequests_{stats(), "rpc_requests"};
    sim::Counter nRpcResponses_{stats(), "rpc_responses"};
    sim::Counter nRpcTimeouts_{stats(), "rpc_timeouts"};
};

} // namespace cdna::net::workload

#endif // CDNA_NET_WORKLOAD_WORKLOAD_ENGINE_HH
