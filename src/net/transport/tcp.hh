/**
 * @file
 * Deterministic per-flow TCP-like (Reno) transport.
 *
 * The paper's evaluation (section 5.1) runs TCP streams; the open-loop
 * traffic model cannot show loss recovery, so this subsystem closes the
 * loop: sequence/ACK numbers ride in net::Packet, the send window is
 * bounded by cwnd x rwnd, slow start and congestion avoidance grow
 * cwnd, three duplicate ACKs trigger fast retransmit, and an RTO timer
 * derived from SRTT/RTTVAR (RFC 6298 style, with exponential backoff
 * and Karn's rule) recovers tail loss with go-back-N.  Receivers run
 * a delayed-ACK policy and a modeled checksum check, so corrupted
 * frames are dropped at the receiver and force retransmission.
 *
 * Everything is integer/sim::Time arithmetic driven by the event
 * queue -- no wall clock, no RNG -- so runs are bit-reproducible.
 *
 * Deliberate deviations from a real stack (see DESIGN.md): no SACK, no
 * CUBIC, no window scaling or handshake/teardown, and the minimum RTO
 * is milliseconds rather than the real-world 200 ms floor, because
 * simulated RTTs are tens of microseconds inside sub-second windows.
 */

#ifndef CDNA_NET_TRANSPORT_TCP_HH
#define CDNA_NET_TRANSPORT_TCP_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "net/packet.hh"
#include "sim/sim_object.hh"

namespace cdna::net::transport {

/** Transport model selection (SystemConfig::transport()). */
enum class TransportKind
{
    kOpenLoop, //!< line-rate peers, frame-counting ACKs (the default)
    kTcp,      //!< closed-loop Reno endpoints on both sides
};

/**
 * The one TCP stack every flow runs: the paper measures one (section
 * 5.1) and no experiment varies it, so the struct holds only constants.
 */
struct TcpParams
{
    /** Data bytes per segment (one net::Packet per segment). */
    static constexpr std::uint64_t segmentBytes = kMss;
    /** Per-flow send buffer; doubles as the advertised receive window. */
    static constexpr std::uint64_t windowBytes = 256 * 1024;
    /** Initial congestion window, in segments (RFC 6928 IW10). */
    static constexpr std::uint32_t initialCwndSegs = 10;
    /** Duplicate ACKs that trigger fast retransmit. */
    static constexpr std::uint32_t dupAckThreshold = 3;
    /** Delayed-ACK frequency: one ACK per this many segments. */
    static constexpr std::uint32_t ackEverySegs = 2;
    /** Delayed-ACK flush timeout. */
    static constexpr sim::Time delayedAckTimeout = sim::microseconds(500);
    /**
     * RTO clamp.  Simulated LAN RTTs are ~100 us, so the floor is a few
     * milliseconds instead of the host-stack 200 ms; the ceiling keeps a
     * dead receiver probed a few times per measurement window.
     */
    static constexpr sim::Time minRto = sim::milliseconds(3);
    static constexpr sim::Time maxRto = sim::milliseconds(64);
};

/**
 * Sender half of one flow: Reno congestion control over an abstract
 * byte stream.  The owner pulls segments (peek/commit) so it can apply
 * its own backpressure (device ring full, link busy) without the flow
 * ever needing to "unsend"; ACK arrival, window opening, and RTO expiry
 * poke the owner through the on-ready callback.
 */
class TcpSenderFlow
{
  public:
    struct Segment
    {
        std::uint64_t seq;
        std::uint32_t len;
        bool rtx; //!< retransmission (never RTT-sampled; Karn's rule)
    };

    /**
     * The owning endpoint's stat counters, registered with its @p group.
     * A flow counts each event there as it happens, so the totals never
     * lag; a flow keeps no count of its own.
     */
    struct Totals
    {
        sim::StatGroup &group;
        sim::Counter segsSent{group, "segs_sent"};
        sim::Counter retransSegs{group, "segs_retransmitted"};
        sim::Counter fastRetransmits{group, "fast_retransmits"};
        sim::Counter rtoEvents{group, "rto_events"};
        sim::Counter dupAcksRx{group, "dup_acks_received"};
    };

    /** @param totals  the counters this flow's events are counted in */
    TcpSenderFlow(sim::SimContext &ctx, std::function<void()> on_ready,
                  Totals &totals);
    ~TcpSenderFlow();

    TcpSenderFlow(const TcpSenderFlow &) = delete;
    TcpSenderFlow &operator=(const TcpSenderFlow &) = delete;

    /**
     * Enqueue application data; returns the bytes accepted (bounded by
     * the free send-buffer space).
     */
    std::uint64_t offer(std::uint64_t bytes);

    /** Infinite data source (the peer side of receive experiments). */
    void setUnlimited();

    /** Next transmittable segment, if the windows allow one. */
    std::optional<Segment> peekSegment() const;
    /** The owner transmitted @p s: advance state, arm timers. */
    void commitSegment(const Segment &s);

    /** Cumulative ACK arrived. */
    void onAck(std::uint64_t ack_no);

    /** Send-buffer bytes freed by ACKs since the last call. */
    std::uint64_t takeFreed();

    std::uint64_t cwnd() const { return cwnd_; }
    std::uint64_t ssthresh() const { return ssthresh_; }
    std::uint64_t sndUna() const { return sndUna_; }
    std::uint64_t inFlight() const { return sndNxt_ - sndUna_; }
    bool inRecovery() const { return inRecovery_; }
    sim::Time rto() const { return rto_; }

    /** Optional notification of recovery events ("fast_rtx", "rto"). */
    void setEventHook(std::function<void(const char *)> fn)
    {
        onEvent_ = std::move(fn);
    }

    /**
     * Domain teardown: cancel the RTO timer so no event fires into a
     * dead owner.  The flow object stays around (its state stays
     * readable) but must not be pumped afterwards.
     */
    void cancelTimers() { cancelRto(); }
    bool rtoArmed() const { return rtoTimer_ != sim::kInvalidEvent; }

  private:
    void armRto();
    void restartRto();
    void cancelRto();
    void onRtoFire();
    void sampleRtt(sim::Time r);

    sim::SimContext &ctx_;
    std::function<void()> onReady_;
    std::function<void(const char *)> onEvent_;
    Totals &totals_;

    std::uint64_t sndUna_ = 0;  //!< oldest unacknowledged byte
    std::uint64_t sndNxt_ = 0;  //!< next byte to send
    std::uint64_t sndMax_ = 0;  //!< highest byte ever sent
    std::uint64_t availEnd_ = 0; //!< end of application-supplied data
    bool unlimited_ = false;

    std::uint64_t cwnd_;
    std::uint64_t ssthresh_;
    std::uint32_t dupAcks_ = 0;
    bool inRecovery_ = false;
    std::uint64_t recover_ = 0; //!< sndMax_ when recovery was entered
    bool fastRtxPending_ = false;

    sim::Time srtt_ = 0;
    sim::Time rttvar_ = 0;
    sim::Time rto_;
    bool timingActive_ = false;
    std::uint64_t rttSeq_ = 0;
    sim::Time rttStart_ = 0;

    sim::EventId rtoTimer_ = sim::kInvalidEvent;
    std::uint64_t freedBytes_ = 0;
};

/**
 * Receiver half of one flow: cumulative ACKs, an out-of-order interval
 * buffer, immediate duplicate ACKs on gaps or old data, and a delayed
 * ACK every ackEverySegs in-order segments (or on timeout).
 */
class TcpReceiverFlow
{
  public:
    TcpReceiverFlow(sim::SimContext &ctx,
                    std::function<void(std::uint64_t ack_no)> send_ack);
    ~TcpReceiverFlow();

    TcpReceiverFlow(const TcpReceiverFlow &) = delete;
    TcpReceiverFlow &operator=(const TcpReceiverFlow &) = delete;

    /**
     * A data segment arrived; returns the in-order bytes newly
     * deliverable to the application (0 for duplicates and holes).
     */
    std::uint64_t onSegment(std::uint64_t seq, std::uint32_t len);

    std::uint64_t rcvNxt() const { return rcvNxt_; }

    /** Domain teardown: cancel the pending delayed-ACK timer, if any. */
    void cancelTimers();
    bool delAckArmed() const { return delAckTimer_ != sim::kInvalidEvent; }

  private:
    void ackNow();
    void scheduleDelayedAck();

    sim::SimContext &ctx_;
    std::function<void(std::uint64_t)> sendAck_;

    std::uint64_t rcvNxt_ = 0;
    std::map<std::uint64_t, std::uint64_t> ooo_; //!< [start, end) intervals
    std::uint32_t pendingSegs_ = 0;
    sim::EventId delAckTimer_ = sim::kInvalidEvent;
};

/**
 * A host's transport endpoint: demultiplexes incoming packets onto
 * flows, pumps sender flows round-robin against the owner's
 * backpressure, and aggregates per-flow statistics.
 *
 * The owner supplies the packet I/O:
 *  - SegmentTx builds and transmits a data segment (returns false on
 *    backpressure; the owner must call pump() when it clears);
 *  - AckTx transmits a pure ACK (false queues it, and every later ACK
 *    behind it, for the next pump);
 *  - Deliver receives in-order payload (goodput);
 *  - BufFreed reports send-buffer space opened by ACKs.
 */
class TcpEndpoint : public sim::SimObject
{
  public:
    struct SegmentOut
    {
        MacAddr dst;
        std::uint64_t flowId;
        std::uint64_t seq;
        std::uint32_t len;
        bool rtx;
    };
    struct AckOut
    {
        MacAddr dst;
        std::uint64_t flowId;
        std::uint64_t ackNo;
    };

    using SegmentTx = std::function<bool(const SegmentOut &)>;
    using AckTx = std::function<bool(const AckOut &)>;
    using Deliver =
        std::function<void(const Packet &pkt, std::uint64_t bytes)>;
    using BufFreed =
        std::function<void(std::uint64_t flow_id, std::uint64_t bytes)>;

    TcpEndpoint(sim::SimContext &ctx, std::string name);

    void setSegmentTx(SegmentTx fn) { segmentTx_ = std::move(fn); }
    void setAckTx(AckTx fn) { ackTx_ = std::move(fn); }
    void setDeliver(Deliver fn) { deliver_ = std::move(fn); }
    void setBufFreed(BufFreed fn) { bufFreed_ = std::move(fn); }

    /** Create the sender flow @p flow_id toward @p dst (idempotent). */
    void openSender(std::uint64_t flow_id, MacAddr dst,
                    bool unlimited = false);

    /** Application data for a sender flow; returns bytes accepted. */
    std::uint64_t offer(std::uint64_t flow_id, std::uint64_t bytes);

    /** A transport packet (data segment or pure ACK) arrived. */
    void onPacket(const Packet &pkt);

    /** Emit whatever the windows and the owner's backpressure allow. */
    void pump();

    /**
     * Kill the endpoint with its domain: cancel every flow's pending
     * timer (RTO, delayed ACK) and drop queued ACKs, then ignore all
     * further packets and pump attempts.  Without this, a timer armed
     * before the domain died would fire its callback into freed driver
     * state (the --kill-guest x --transport tcp hazard).
     */
    void shutdown();
    /** Pending per-flow timers (RTO + delayed ACK); 0 after shutdown. */
    std::uint64_t armedTimers() const;

    // --- aggregates (totals over flows; monotonic) ------------------------
    std::uint64_t segsSent() const { return totals_.segsSent.value(); }
    std::uint64_t retransSegs() const { return totals_.retransSegs.value(); }
    std::uint64_t
    fastRetransmits() const
    {
        return totals_.fastRetransmits.value();
    }
    std::uint64_t rtoEvents() const { return totals_.rtoEvents.value(); }
    std::uint64_t dupAcksRx() const { return totals_.dupAcksRx.value(); }
    std::uint64_t deliveredBytes() const { return nDelivered_.value(); }

    /** Sum of cumulatively ACKed bytes across sender flows (the
     *  closed-loop progress basis). */
    std::uint64_t sndUnaTotal() const;

    /** Sum of sender-flow congestion windows (cwnd-trajectory gauge). */
    double cwndBytes() const;

    /** Direct flow access (tests, probes). */
    TcpSenderFlow *senderFlow(std::uint64_t flow_id);

  private:
    struct Sender
    {
        MacAddr dst;
        std::unique_ptr<TcpSenderFlow> flow;
    };

    /** Hand @p ao to the owner, or queue it behind any refused ACK. */
    void sendAck(const AckOut &ao);

    SegmentTx segmentTx_;
    AckTx ackTx_;
    Deliver deliver_;
    BufFreed bufFreed_;

    std::map<std::uint64_t, Sender> senders_;
    std::map<std::pair<MacAddr, std::uint64_t>,
             std::unique_ptr<TcpReceiverFlow>>
        receivers_;
    std::deque<AckOut> pendingAcks_; //!< refused by the owner, in order
    bool pumping_ = false;
    bool notifying_ = false;
    bool shutdown_ = false;

    sim::Counter nDelivered_{stats(), "delivered_bytes"};
    sim::Counter nAcksRx_{stats(), "acks_received"};
    TcpSenderFlow::Totals totals_{stats()}; //!< every sender flow's counts
    sim::Counter nAcksTx_{stats(), "acks_sent"}; //!< as each ACK leaves
};

} // namespace cdna::net::transport

#endif // CDNA_NET_TRANSPORT_TCP_HH
