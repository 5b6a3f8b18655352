/**
 * @file
 * Output-queued Ethernet switch: the N-port Fabric.
 *
 * Each bound endpoint's ingress is a WirePort, the serializer EthLink
 * directions use (line-rate serialization, fault injection,
 * propagation), delivering to the switch instead of a far endpoint; the
 * switch itself adds only forwarding and the egress queues.
 * Forwarding is by static route only: a fully-received frame is
 * enqueued on the finite egress queue of the port its destination MAC
 * is pinned to (setRoute), and a frame with no route is dropped and
 * counted.  The queue is tail-drop with per-port drop counters, models
 * store-and-forward (a frame occupies buffer from enqueue until its
 * last byte has been retransmitted), and charges a fixed forwarding
 * latency before a frame becomes eligible for egress.
 */

#ifndef CDNA_NET_ETH_SWITCH_HH
#define CDNA_NET_ETH_SWITCH_HH

#include <cstdint>
#include <vector>

#include "net/eth_link.hh"
#include "net/fabric.hh"
#include "net/packet.hh"
#include "sim/fifo.hh"
#include "sim/sim_object.hh"

namespace cdna::net {

/**
 * Store-and-forward lookup/enqueue latency per frame between full
 * ingress reception and egress eligibility; a cut-through-era GigE
 * top-of-rack switch forwards a learned unicast in a few microseconds.
 */
inline constexpr sim::Time kSwitchForwardLatency = sim::microseconds(4);
/** Per-egress-port packet buffer (wire bytes); ~85 full frames,
 *  modeled after the shallow shared-memory switches of the era. */
inline constexpr std::uint64_t kSwitchBufBytesPerPort = 128 * 1024;

/** Every port runs at the cables' line rate and propagation (eth_link.hh). */
struct EthSwitchParams
{
    /** Lookup/enqueue latency before a frame may begin egress. */
    sim::Time forwardLatency = kSwitchForwardLatency;
    /** Per-port egress buffer in wire bytes. */
    std::uint64_t bufBytesPerPort = kSwitchBufBytesPerPort;
};

class EthSwitch : public sim::SimObject, public Fabric
{
  public:
    EthSwitch(sim::SimContext &ctx, std::string name,
              std::uint32_t num_ports, EthSwitchParams params = {});

    /** Claim the next free port (asserts when the switch is full). */
    Port &bind(LinkEndpoint &ep) override;

    /** Port @p i's handle (bound or not; tests peek at counters). */
    Port &port(std::uint32_t i);

    /** Pin @p mac to egress port @p port. */
    void setRoute(MacAddr mac, std::uint32_t port);

    /** Frames dropped because no route existed. */
    std::uint64_t unrouted() const { return nUnrouted_.value(); }

    /** Sum of egress tail-drops over all ports. */
    std::uint64_t totalDrops() const;

  private:
    struct QEntry
    {
        Packet pkt;
        std::uint64_t wireBytes = 0;
        sim::Time readyAt = 0;
    };

    /** Ingress: the endpoint's wire into the switch.  Egress: the
     *  finite output queue and its wire out to the endpoint. */
    struct SwitchPort final : WirePort
    {
        EthSwitch *sw = nullptr;

        /** Egress queue; while egressBusy its head is serializing. */
        sim::Fifo<QEntry> q;
        /** Frames past egress serialization, propagating to the endpoint. */
        sim::Fifo<Packet> onWire;
        std::uint64_t qBytes = 0;
        std::uint64_t qPeakBytes = 0;
        bool egressBusy = false;
        sim::Counter drops;
        sim::Counter dropBytes;

        void
        arrive(Packet pkt) override
        {
            sw->forward(std::move(pkt));
        }
        std::uint64_t egressDrops() const override
        {
            return drops.value();
        }
        std::uint64_t egressDropBytes() const override
        {
            return dropBytes.value();
        }
        std::uint64_t queuePeakBytes() const override { return qPeakBytes; }
    };

    /** A frame has fully arrived: look up its route and enqueue. */
    void forward(Packet pkt);
    /** Enqueue @p pkt on @p out (tail-drop on overflow). */
    void enqueue(SwitchPort &out, Packet pkt);
    /** Start the next eligible egress transmission on @p out. */
    void pumpEgress(SwitchPort &out);
    /** @p out's head has serialized: free its buffer, send it on. */
    void finishEgress(SwitchPort &out);

    EthSwitchParams params_;
    std::vector<SwitchPort> ports_;
    std::uint32_t bound_ = 0;
    MacTable<std::uint32_t> routes_;
    sim::Counter nUnrouted_;
};

/**
 * Inter-switch uplink: binds one port on each of two fabrics and
 * re-transmits every frame received on one side into the other.
 * The finite buffering of a congested uplink lives in the upstream
 * switch's egress queue toward the trunk port.
 */
class SwitchTrunk : public sim::SimObject
{
  public:
    SwitchTrunk(sim::SimContext &ctx, std::string name, Fabric &a,
                Fabric &b);

    /** The trunk's port index on fabric A / B (for setRoute). */
    std::uint32_t portOnA() const { return endA_.port->index(); }
    std::uint32_t portOnB() const { return endB_.port->index(); }

    /** Frames relayed in each direction. */
    std::uint64_t relayedAToB() const { return endA_.relayed.value(); }
    std::uint64_t relayedBToA() const { return endB_.relayed.value(); }

  private:
    struct End final : LinkEndpoint
    {
        SwitchTrunk *trunk = nullptr;
        Port *port = nullptr;        // this end's port
        End *other = nullptr;        // the far end
        sim::Counter relayed;        // frames relayed to the far end

        void receiveFrame(Packet pkt) override;
    };

    End endA_;
    End endB_;
};

} // namespace cdna::net

#endif // CDNA_NET_ETH_SWITCH_HH
