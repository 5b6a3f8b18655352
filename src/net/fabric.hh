/**
 * @file
 * The composable network-fabric API.
 *
 * A Fabric is anything that moves Ethernet frames between endpoints: a
 * point-to-point EthLink (the trivial two-port fabric) or an
 * output-queued EthSwitch.  Endpoints (NICs, traffic peers, trunks)
 * never see the fabric topology -- they bind() themselves and get back
 * a Port handle carrying the full datapath surface: send with a
 * serialization-complete callback, busy for backpressure, and the
 * port-local byte/drop accounting the reports read.
 *
 * This is what lets a System stay fabric-agnostic: the same NIC model
 * drives a dedicated link in the paper's single-host experiments and a
 * shared switch port in the multi-host incast/noisy-neighbor
 * topologies (see sim/topology.hh).
 */

#ifndef CDNA_NET_FABRIC_HH
#define CDNA_NET_FABRIC_HH

#include <cstdint>

#include "net/packet.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace cdna::net {

/** Something that can terminate a fabric port (a NIC or a peer). */
class LinkEndpoint
{
  public:
    virtual ~LinkEndpoint() = default;

    /** A frame has fully arrived from the wire. */
    virtual void receiveFrame(Packet pkt) = 0;
};

/**
 * One endpoint's handle onto a fabric.
 *
 * The handle is per-endpoint: busy() and the serialized callback
 * describe *this port's* ingress serializer, never the whole fabric,
 * so two endpoints sharing a switch cannot observe (or stall on) each
 * other's transmit state.
 */
class Port
{
  public:
    virtual ~Port() = default;

    /**
     * Transmit @p pkt into the fabric.
     * @param extra_gap   additional wire dead time charged after the
     *                    frame (models MAC/firmware inter-frame stalls)
     * @param serialized  fires when the last byte has left this port
     * @return time at which serialization completes
     */
    virtual sim::Time send(Packet pkt, sim::Time extra_gap = 0,
                           sim::InplaceCallback serialized = {}) = 0;

    /** True while this port's ingress serializer is occupied. */
    virtual bool busy() const = 0;

    /** Payload bytes this endpoint has injected (counted at send). */
    virtual std::uint64_t payloadCarried() const = 0;

    /** Payload bytes delivered to this port's endpoint. */
    virtual std::uint64_t payloadDelivered() const = 0;

    /** Frames tail-dropped from this port's egress queue. */
    virtual std::uint64_t egressDrops() const { return 0; }
    /** Wire bytes tail-dropped from this port's egress queue. */
    virtual std::uint64_t egressDropBytes() const { return 0; }
    /** High-watermark of this port's egress queue, in wire bytes. */
    virtual std::uint64_t queuePeakBytes() const { return 0; }

    /** Position of this port on its fabric (bind order). */
    std::uint32_t index() const { return index_; }

  protected:
    std::uint32_t index_ = 0;
};

/** A frame-moving device with bind-order port allocation. */
class Fabric
{
  public:
    virtual ~Fabric() = default;

    /** Claim the next free port for @p ep and return its handle. */
    virtual Port &bind(LinkEndpoint &ep) = 0;
};

} // namespace cdna::net

#endif // CDNA_NET_FABRIC_HH
