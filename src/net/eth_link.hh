/**
 * @file
 * Full-duplex point-to-point Ethernet link: the trivial 2-port Fabric,
 * and the wire model every fabric port transmits on.
 *
 * Each direction is an independent serially-reused channel: a frame (or
 * TSO burst) occupies the wire for wireBytes() at the link rate, then is
 * delivered to the far endpoint after the propagation delay.  The
 * paper's testbed used dedicated Gigabit links between the Xen host and
 * a tuned peer; this model reproduces the 949 Mb/s per-link TCP-goodput
 * ceiling that bounds the CDNA saturation plateau.
 *
 * That serializer is WirePort.  A link's two directions are WirePorts
 * delivering to each other's endpoint; an EthSwitch's ingress ports are
 * WirePorts delivering to the switch's forwarding logic.
 *
 * A NIC may hand the wire far more than it can carry at once (the CDNA
 * NIC stages megabytes), so a WirePort keeps its backlog out of the
 * event heap: serialization-done callbacks and frames in flight wait in
 * two FIFOs, and only each FIFO's head is a scheduled event.
 *
 * Endpoints bind() in any order; the first binder gets port 0, the
 * second port 1, and each port transmits toward the other's endpoint.
 */

#ifndef CDNA_NET_ETH_LINK_HH
#define CDNA_NET_ETH_LINK_HH

#include <cstdint>
#include <deque>

#include "net/fabric.hh"
#include "net/packet.hh"
#include "sim/sim_object.hh"

namespace cdna::net {

/** Picoseconds one byte occupies every fabric's cable: Gigabit
 *  Ethernet, the paper's testbed links. */
inline constexpr double kWirePsPerByte =
    static_cast<double>(sim::kSecond) * 8.0 / 1.0e9;
/** One-way propagation delay of every cable. */
inline constexpr sim::Time kWirePropagation = sim::nanoseconds(500);

/** Time @p wire_bytes occupy a cable at line rate. */
constexpr sim::Time
wireTime(std::uint64_t wire_bytes)
{
    return static_cast<sim::Time>(kWirePsPerByte *
                                  static_cast<double>(wire_bytes));
}

/**
 * One endpoint's wire into a fabric.  A send occupies the wire for
 * wireBytes() at line rate plus the caller's extra gap; the fault
 * injector may then drop, corrupt or duplicate the frame, and whatever
 * survives reaches arrive() after the propagation delay.
 *
 * Each send reserves the event sequence numbers its events would have
 * taken if scheduled at once (serialized, arrival, duplicate) and
 * queues them.  A FIFO's (when, seq) keys strictly increase -- frames
 * end in send order and propagation is fixed -- so arming only the
 * head, and the successor when the head fires, dispatches everything in
 * exactly the order of scheduling it all at send time.
 */
class WirePort : public Port
{
  public:
    /**
     * Become port @p index of @p owner.  Registers p<index>_tx_frames,
     * _tx_payload_bytes and _rx_payload_bytes on @p owner.
     */
    void attach(sim::SimObject &owner, std::uint32_t index);

    /** Terminate this port at @p ep. */
    void connect(LinkEndpoint &ep) { ep_ = &ep; }
    bool connected() const { return ep_ != nullptr; }

    /** Hand @p pkt to this port's endpoint (if any), counting it. */
    void deliver(Packet pkt);

    sim::Time send(Packet pkt, sim::Time extra_gap,
                   sim::InplaceCallback serialized) override;
    bool busy() const override;
    std::uint64_t payloadCarried() const override
    {
        return txPayload_.value();
    }
    std::uint64_t payloadDelivered() const override
    {
        return rxPayload_.value();
    }

  private:
    /** A serialized callback waiting for its frame's last byte. */
    struct PendingDone
    {
        sim::Time when;
        std::uint64_t seq;
        sim::InplaceCallback fn;
    };

    /** A frame on the wire, waiting to reach the far side. */
    struct InFlight
    {
        sim::Time when;
        std::uint64_t seq;
        Packet pkt;
    };

    /** A frame has crossed the wire: hand it to the far end. */
    virtual void arrive(Packet pkt) = 0;

    void queueArrival(sim::Time when, Packet pkt);
    void armDone();
    void armArrival();
    void fireDone();
    void fireArrival();

    sim::SimObject *owner_ = nullptr;
    LinkEndpoint *ep_ = nullptr;
    sim::Time busyUntil_ = 0;
    sim::Counter txFrames_;
    sim::Counter txPayload_;
    sim::Counter rxPayload_;
    std::deque<PendingDone> done_;
    std::deque<InFlight> inFlight_;
};

class EthLink : public sim::SimObject, public Fabric
{
  public:
    EthLink(sim::SimContext &ctx, std::string name);

    /** Claim the next of the two ports (asserts on a third binder). */
    Port &bind(LinkEndpoint &ep) override;

    /** Port @p i's handle (bound or not; tests peek at counters). */
    Port &port(std::uint32_t i);

  private:
    /** One direction: delivers to the other port's endpoint. */
    struct LinkPort final : WirePort
    {
        LinkPort *far = nullptr;

        void arrive(Packet pkt) override;
    };

    LinkPort ports_[2];
    std::uint32_t bound_ = 0;
};

} // namespace cdna::net

#endif // CDNA_NET_ETH_LINK_HH
