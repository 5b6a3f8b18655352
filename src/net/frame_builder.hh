/**
 * @file
 * FrameBuilder: the one place each kind of frame a sender emits is built.
 */

#ifndef CDNA_NET_FRAME_BUILDER_HH
#define CDNA_NET_FRAME_BUILDER_HH

#include "net/packet.hh"
#include "net/transport/tcp.hh"

namespace cdna::net {

/** One sender's frames: each carries its source MAC. */
class FrameBuilder
{
  public:
    explicit FrameBuilder(MacAddr src = {}) : src_(src) {}

    /** @p len payload bytes toward @p dst, created @p now. */
    Packet
    data(MacAddr dst, std::uint32_t len, std::uint64_t flow_id,
         sim::Time now)
    {
        Packet pkt;
        pkt.src = src_;
        pkt.dst = dst;
        pkt.payloadBytes = len;
        pkt.flowId = flow_id;
        pkt.created = now;
        return pkt;
    }

    /** An open-loop ACK: no payload, no flow. */
    Packet ack(MacAddr dst, sim::Time now) { return data(dst, 0, 0, now); }

    /** A TCP flow's data segment @p so. */
    Packet
    tcpSegment(const transport::TcpEndpoint::SegmentOut &so, sim::Time now)
    {
        Packet pkt = data(so.dst, so.len, so.flowId, now);
        pkt.seq = so.seq;
        pkt.tcpData = true;
        return pkt;
    }

    /** A TCP flow's pure ACK @p ao. */
    Packet
    tcpAck(const transport::TcpEndpoint::AckOut &ao, sim::Time now)
    {
        Packet pkt = data(ao.dst, 0, ao.flowId, now);
        pkt.ackNo = ao.ackNo;
        pkt.tcpAck = true;
        return pkt;
    }

  private:
    MacAddr src_;
};

} // namespace cdna::net

#endif // CDNA_NET_FRAME_BUILDER_HH
