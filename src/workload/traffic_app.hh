/**
 * @file
 * The benchmark application (paper section 5.1).
 *
 * Models the paper's "multithreaded, event-driven, lightweight network
 * benchmark program": two connections per interface, bandwidth
 * balanced across them round-robin, and a single reused buffer per
 * connection to minimize memory footprint (which is why user-mode CPU
 * cost is tiny in the paper's profiles).
 *
 * Transmit mode: keeps up to 512 KB in flight per interface, writing
 * 64 KB chunks; completions (the guest-visible TX done signal) open the
 * window again.  Receive mode: sinks whatever the stack delivers.
 */

#ifndef CDNA_WORKLOAD_TRAFFIC_APP_HH
#define CDNA_WORKLOAD_TRAFFIC_APP_HH

#include <cstdint>
#include <vector>

#include "os/net_stack.hh"

namespace cdna::workload {

class TrafficApp : public sim::SimObject
{
  public:
    /** Connections per interface, written round-robin. */
    static constexpr std::uint32_t kConnections = 2;
    /** Aggregate in-flight limit across the connections. */
    static constexpr std::uint64_t kWindowBytes = 512 * 1024;
    /** Bytes per socket write. */
    static constexpr std::uint32_t kChunkBytes = 65536;

    struct Params
    {
        /** Generate traffic (transmit test) or only sink (receive). */
        bool transmit = true;
        /** Answer RPC request frames (net/workload/) with responses of
         *  kRpcResponseBytes, paying user time per request. */
        bool rpcServer = false;
    };

    TrafficApp(sim::SimContext &ctx, std::string name, os::NetStack &stack,
               Params params);

    /** Begin generating (transmit mode) -- receive mode needs no start. */
    void start();

    /** Stop with the owning domain: no further writes are issued. */
    void stop() { stopped_ = true; }

    std::uint64_t bytesSent() const { return nSent_.value(); }
    std::uint64_t bytesReceived() const { return nReceived_.value(); }
    std::uint64_t packetsReceived() const { return nRxPkts_.value(); }

  private:
    void pump();
    void onRpc(const net::Packet &req);

    os::NetStack &stack_;
    Params params_;

    struct Conn
    {
        std::uint64_t id;
        std::vector<mem::PageNum> buffer;
    };

    std::vector<Conn> conns_;
    std::size_t rr_ = 0;
    std::uint64_t inFlight_ = 0;
    bool pumpActive_ = false;
    bool started_ = false;
    bool stopped_ = false;

    sim::Counter nSent_{stats(), "bytes_sent"};
    sim::Counter nReceived_{stats(), "bytes_received"};
    sim::Counter nRxPkts_{stats(), "packets_received"};
    sim::Counter nRpcServed_{stats(), "rpc_served"};
};

} // namespace cdna::workload

#endif // CDNA_WORKLOAD_TRAFFIC_APP_HH
