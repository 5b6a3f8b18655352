/**
 * @file
 * Packet metadata and Ethernet framing constants.
 *
 * Payload contents are not simulated; a Packet carries the metadata the
 * system actually routes on (MAC addresses), the byte counts timing and
 * throughput are computed from, and the host-memory scatter/gather list
 * protection is enforced on.
 */

#ifndef CDNA_NET_PACKET_HH
#define CDNA_NET_PACKET_HH

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "mem/dma_engine.hh"
#include "sim/time.hh"

namespace cdna::net {

/** Ethernet MAC address. */
class MacAddr
{
  public:
    constexpr MacAddr() : bytes_{} {}

    /** Locally-administered address derived from a small integer id. */
    static constexpr MacAddr
    fromId(std::uint32_t id)
    {
        MacAddr m;
        m.bytes_[0] = 0x02; // locally administered, unicast
        m.bytes_[1] = 0xCD;
        m.bytes_[2] = 0x4A; // "CDNA"
        m.bytes_[3] = static_cast<std::uint8_t>(id >> 16);
        m.bytes_[4] = static_cast<std::uint8_t>(id >> 8);
        m.bytes_[5] = static_cast<std::uint8_t>(id);
        return m;
    }

    bool operator==(const MacAddr &o) const { return key() == o.key(); }

    /** Byte-lexicographic order, compared as one integer. */
    std::strong_ordering
    operator<=>(const MacAddr &o) const
    {
        return key() <=> o.key();
    }

    std::string str() const;

    /** Raw byte view (printing, hashing in tests). */
    const std::array<std::uint8_t, 6> &raw() const { return bytes_; }

    /** Seeds the workload RNG stream; it is not injective (fromId(131)
     *  and fromId(256) hash alike), so no lookup keys on it. */
    std::uint64_t
    hash() const
    {
        std::uint64_t h = 0;
        for (auto b : bytes_)
            h = h * 131 + b;
        return h;
    }

    /**
     * The six bytes as one big-endian integer, so integer order is byte
     * order.  Compares and keyed lookups use it: comparing the byte
     * array itself calls memcmp.
     */
    std::uint64_t
    key() const
    {
        std::uint32_t hi;
        std::uint16_t lo;
        std::memcpy(&hi, bytes_.data(), sizeof(hi));
        std::memcpy(&lo, bytes_.data() + sizeof(hi), sizeof(lo));
        if constexpr (std::endian::native == std::endian::little) {
            hi = __builtin_bswap32(hi);
            lo = __builtin_bswap16(lo);
        }
        return std::uint64_t{hi} << 16 | lo;
    }

  private:
    std::array<std::uint8_t, 6> bytes_;
};

/**
 * The one MAC-keyed lookup (NIC and bridge demux, switch routes, peer
 * records): (MacAddr::key(), value) pairs in one flat vector sorted by
 * key and searched by bisection.
 */
template <typename V>
class MacTable
{
  public:
    /** @p mac's value, or null when it has none. */
    const V *
    find(MacAddr mac) const
    {
        auto it = slot(mac.key());
        return it != entries_.end() && it->first == mac.key() ? &it->second
                                                              : nullptr;
    }

    /** Map @p mac to @p v, replacing its earlier value. */
    void
    set(MacAddr mac, V v)
    {
        erase(mac);
        entries_.insert(slot(mac.key()), {mac.key(), std::move(v)});
    }

    /** Forget @p mac (nothing when it has no value). */
    void
    erase(MacAddr mac)
    {
        if (find(mac))
            entries_.erase(slot(mac.key()));
    }

  private:
    using Entry = std::pair<std::uint64_t, V>;

    typename std::vector<Entry>::const_iterator
    slot(std::uint64_t key) const
    {
        return std::lower_bound(
            entries_.begin(), entries_.end(), key,
            [](const Entry &e, std::uint64_t k) { return e.first < k; });
    }

    std::vector<Entry> entries_;
};

/** Standard Ethernet MTU (bytes of IP datagram per frame). */
inline constexpr std::uint32_t kMtu = 1500;
/** TCP/IP header bytes inside the MTU. */
inline constexpr std::uint32_t kTcpIpHeader = 40;
/** Max TCP payload per wire frame. */
inline constexpr std::uint32_t kMss = kMtu - kTcpIpHeader;
/** Ethernet MAC header + frame check sequence. */
inline constexpr std::uint32_t kEthHeader = 18;
/** Preamble + SFD + inter-frame gap (occupies the wire, carries nothing). */
inline constexpr std::uint32_t kEthIdle = 20;
/** Total non-payload wire bytes per frame. */
inline constexpr std::uint32_t kWireOverhead =
    kTcpIpHeader + kEthHeader + kEthIdle; // 78 bytes per full frame

/** Largest TSO segment the stack will form (64 KB). */
inline constexpr std::uint32_t kMaxTsoBytes = 65536;

/**
 * A packet (or, when payloadBytes > kMss, a TSO segment that the NIC
 * will cut into MTU-sized frames on the wire).
 */
struct Packet
{
    MacAddr src;
    MacAddr dst;
    std::uint32_t payloadBytes = 0;   //!< TCP payload (goodput) bytes
    mem::SgList hostSg;               //!< host buffer(s), empty once on wire
    std::uint64_t flowId = 0;         //!< connection the packet belongs to
    sim::Time created = 0;            //!< creation time (latency stats)
    /**
     * Injected duplicate of an already-delivered frame (fault
     * injection).  Duplicates consume wire, NIC, and stack resources
     * but are excluded from goodput, latency, and ACK accounting so
     * faults can only ever lower measured throughput.
     */
    bool duplicated = false;
    /**
     * Frame integrity: cleared by wire corruption (EthLink fault
     * injection).  NICs DMA the frame regardless (checksum offload
     * verifies, software checks on delivery); receivers -- NetStack
     * and TrafficPeer -- drop it and count rxDropBadCsum, which under
     * the TCP transport forces a retransmission.
     */
    bool intact = true;

    // --- transport (net/transport/tcp.hh); untouched in open-loop mode ---
    std::uint64_t seq = 0;   //!< first payload byte's stream offset
    std::uint64_t ackNo = 0; //!< cumulative ACK (valid when tcpAck)
    bool tcpData = false;    //!< seq is valid (data segment)
    bool tcpAck = false;     //!< ackNo is valid (pure ACK)

    // --- request/response RPC (net/workload/); flowId is the request id ---
    bool rpcReq = false;  //!< request frame, answered by the stack
    bool rpcResp = false; //!< response frame, routed to the engine

    /** Number of wire frames this packet occupies. */
    std::uint32_t
    wireFrames() const
    {
        return payloadBytes == 0 ? 1 : (payloadBytes + kMss - 1) / kMss;
    }

    /** Total bytes of wire occupancy including all framing overhead. */
    std::uint64_t
    wireBytes() const
    {
        return static_cast<std::uint64_t>(payloadBytes) +
               static_cast<std::uint64_t>(wireFrames()) * kWireOverhead;
    }
};

} // namespace cdna::net

#endif // CDNA_NET_PACKET_HH
