#include "net/transport/tcp.hh"

#include <algorithm>

#include "sim/assert.hh"

namespace cdna::net::transport {

// ---------------------------------------------------------------------------
// TcpSenderFlow
// ---------------------------------------------------------------------------

TcpSenderFlow::TcpSenderFlow(sim::SimContext &ctx,
                             std::function<void()> on_ready, Totals &totals)
    : ctx_(ctx),
      onReady_(std::move(on_ready)),
      totals_(totals),
      cwnd_(TcpParams::initialCwndSegs * TcpParams::segmentBytes),
      ssthresh_(UINT64_C(1) << 62),
      rto_(TcpParams::minRto)
{
}

TcpSenderFlow::~TcpSenderFlow()
{
    cancelRto();
}

std::uint64_t
TcpSenderFlow::offer(std::uint64_t bytes)
{
    if (unlimited_)
        return bytes;
    std::uint64_t used = availEnd_ - sndUna_;
    std::uint64_t room =
        TcpParams::windowBytes > used ? TcpParams::windowBytes - used : 0;
    std::uint64_t accepted = std::min(bytes, room);
    availEnd_ += accepted;
    return accepted;
}

void
TcpSenderFlow::setUnlimited()
{
    unlimited_ = true;
    availEnd_ = UINT64_C(1) << 62;
}

std::optional<TcpSenderFlow::Segment>
TcpSenderFlow::peekSegment() const
{
    if (fastRtxPending_ && sndNxt_ > sndUna_) {
        auto len = static_cast<std::uint32_t>(
            std::min(TcpParams::segmentBytes, sndNxt_ - sndUna_));
        return Segment{sndUna_, len, true};
    }
    // The receive window is fixed at windowBytes (the peer's buffer);
    // the effective window is its minimum with cwnd.
    std::uint64_t wnd = std::min(cwnd_, TcpParams::windowBytes);
    std::uint64_t limit = std::min(sndUna_ + wnd, availEnd_);
    if (sndNxt_ >= limit)
        return std::nullopt;
    auto len = static_cast<std::uint32_t>(
        std::min(TcpParams::segmentBytes, limit - sndNxt_));
    return Segment{sndNxt_, len, sndNxt_ < sndMax_};
}

void
TcpSenderFlow::commitSegment(const Segment &s)
{
    totals_.segsSent.inc();
    if (s.rtx) {
        totals_.retransSegs.inc();
        timingActive_ = false; // Karn: never sample a retransmission
    } else if (!timingActive_) {
        timingActive_ = true;
        rttSeq_ = s.seq + s.len;
        rttStart_ = ctx_.now();
    }
    if (fastRtxPending_ && s.rtx && s.seq == sndUna_)
        fastRtxPending_ = false;
    if (s.seq == sndNxt_) {
        sndNxt_ += s.len;
        sndMax_ = std::max(sndMax_, sndNxt_);
    }
    armRto();
}

void
TcpSenderFlow::onAck(std::uint64_t ack_no)
{
    std::uint64_t ack = std::min(ack_no, sndMax_);
    if (ack > sndUna_) {
        std::uint64_t newly = ack - sndUna_;
        sndUna_ = ack;
        if (sndNxt_ < sndUna_)
            sndNxt_ = sndUna_;
        if (!unlimited_)
            freedBytes_ += newly;
        if (timingActive_ && ack >= rttSeq_) {
            sampleRtt(ctx_.now() - rttStart_);
            timingActive_ = false;
        }
        if (inFlight() > 0)
            restartRto();
        else
            cancelRto();
        if (inRecovery_) {
            if (ack >= recover_) {
                // Full recovery: deflate to ssthresh and resume CA.
                inRecovery_ = false;
                fastRtxPending_ = false;
                cwnd_ = ssthresh_;
                dupAcks_ = 0;
            } else {
                // NewReno partial ACK: the next hole is lost too --
                // retransmit it and deflate by the data acknowledged.
                cwnd_ = (cwnd_ > newly ? cwnd_ - newly
                                       : TcpParams::segmentBytes) +
                        TcpParams::segmentBytes;
                fastRtxPending_ = true;
            }
        } else {
            dupAcks_ = 0;
            if (cwnd_ < ssthresh_)
                cwnd_ += std::min(newly, TcpParams::segmentBytes);
            else
                cwnd_ += std::max<std::uint64_t>(
                    1, TcpParams::segmentBytes * TcpParams::segmentBytes /
                           cwnd_);
        }
    } else if (sndNxt_ > sndUna_) {
        totals_.dupAcksRx.inc();
        if (inRecovery_) {
            cwnd_ += TcpParams::segmentBytes; // window inflation
        } else if (++dupAcks_ == TcpParams::dupAckThreshold) {
            inRecovery_ = true;
            recover_ = sndMax_;
            ssthresh_ = std::max(inFlight() / 2, 2 * TcpParams::segmentBytes);
            cwnd_ = ssthresh_ + 3 * TcpParams::segmentBytes;
            fastRtxPending_ = true;
            totals_.fastRetransmits.inc();
            timingActive_ = false;
            if (onEvent_)
                onEvent_("fast_rtx");
        }
    }
    if (onReady_)
        onReady_();
}

std::uint64_t
TcpSenderFlow::takeFreed()
{
    return std::exchange(freedBytes_, 0);
}

void
TcpSenderFlow::sampleRtt(sim::Time r)
{
    if (srtt_ == 0) {
        srtt_ = r;
        rttvar_ = r / 2;
    } else {
        sim::Time diff = srtt_ > r ? srtt_ - r : r - srtt_;
        rttvar_ = (3 * rttvar_ + diff) / 4;
        srtt_ = (7 * srtt_ + r) / 8;
    }
    rto_ = std::clamp(srtt_ + 4 * rttvar_, TcpParams::minRto,
                      TcpParams::maxRto);
}

void
TcpSenderFlow::armRto()
{
    if (rtoTimer_ != sim::kInvalidEvent)
        return;
    rtoTimer_ = ctx_.events().schedule(rto_, [this] { onRtoFire(); });
}

void
TcpSenderFlow::restartRto()
{
    cancelRto();
    armRto();
}

void
TcpSenderFlow::cancelRto()
{
    if (rtoTimer_ != sim::kInvalidEvent) {
        ctx_.events().cancel(rtoTimer_);
        rtoTimer_ = sim::kInvalidEvent;
    }
}

void
TcpSenderFlow::onRtoFire()
{
    rtoTimer_ = sim::kInvalidEvent;
    if (inFlight() == 0)
        return;
    totals_.rtoEvents.inc();
    ssthresh_ = std::max(inFlight() / 2, 2 * TcpParams::segmentBytes);
    cwnd_ = TcpParams::segmentBytes;
    sndNxt_ = sndUna_; // go-back-N
    inRecovery_ = false;
    dupAcks_ = 0;
    fastRtxPending_ = false;
    timingActive_ = false;
    // Exponential backoff, held until the next valid RTT sample.
    rto_ = std::min(rto_ * 2, TcpParams::maxRto);
    armRto();
    if (onEvent_)
        onEvent_("rto");
    if (onReady_)
        onReady_();
}

// ---------------------------------------------------------------------------
// TcpReceiverFlow
// ---------------------------------------------------------------------------

TcpReceiverFlow::TcpReceiverFlow(sim::SimContext &ctx,
                                 std::function<void(std::uint64_t)> send_ack)
    : ctx_(ctx), sendAck_(std::move(send_ack))
{
}

TcpReceiverFlow::~TcpReceiverFlow()
{
    if (delAckTimer_ != sim::kInvalidEvent)
        ctx_.events().cancel(delAckTimer_);
}

std::uint64_t
TcpReceiverFlow::onSegment(std::uint64_t seq, std::uint32_t len)
{
    if (seq + len <= rcvNxt_) {
        // Entirely old data (network duplicate or spurious retransmit):
        // re-ACK immediately so the sender sees progress.
        ackNow();
        return 0;
    }
    if (seq > rcvNxt_) {
        // Hole: buffer the segment and send an immediate duplicate ACK.
        auto it = ooo_.emplace(seq, seq + len).first;
        if (it->second < seq + len)
            it->second = seq + len;
        // Merge with neighbours.
        while (true) {
            auto next = std::next(it);
            if (next == ooo_.end() || next->first > it->second)
                break;
            it->second = std::max(it->second, next->second);
            ooo_.erase(next);
        }
        if (it != ooo_.begin()) {
            auto prev = std::prev(it);
            if (prev->second >= it->first) {
                prev->second = std::max(prev->second, it->second);
                ooo_.erase(it);
            }
        }
        ackNow();
        return 0;
    }

    // In-order (possibly overlapping already-received data).
    std::uint64_t before = rcvNxt_;
    rcvNxt_ = seq + len;
    while (!ooo_.empty()) {
        auto it = ooo_.begin();
        if (it->first > rcvNxt_)
            break;
        rcvNxt_ = std::max(rcvNxt_, it->second);
        ooo_.erase(it);
    }
    std::uint64_t delivered = rcvNxt_ - before;

    if (++pendingSegs_ >= TcpParams::ackEverySegs)
        ackNow();
    else
        scheduleDelayedAck();
    return delivered;
}

void
TcpReceiverFlow::ackNow()
{
    if (delAckTimer_ != sim::kInvalidEvent) {
        ctx_.events().cancel(delAckTimer_);
        delAckTimer_ = sim::kInvalidEvent;
    }
    pendingSegs_ = 0;
    sendAck_(rcvNxt_);
}

void
TcpReceiverFlow::scheduleDelayedAck()
{
    if (delAckTimer_ != sim::kInvalidEvent)
        return;
    delAckTimer_ = ctx_.events().schedule(TcpParams::delayedAckTimeout, [this] {
        delAckTimer_ = sim::kInvalidEvent;
        if (pendingSegs_ > 0) {
            pendingSegs_ = 0;
            sendAck_(rcvNxt_);
        }
    });
}

void
TcpReceiverFlow::cancelTimers()
{
    if (delAckTimer_ != sim::kInvalidEvent) {
        ctx_.events().cancel(delAckTimer_);
        delAckTimer_ = sim::kInvalidEvent;
    }
    pendingSegs_ = 0;
}

// ---------------------------------------------------------------------------
// TcpEndpoint
// ---------------------------------------------------------------------------

TcpEndpoint::TcpEndpoint(sim::SimContext &ctx, std::string name)
    : sim::SimObject(ctx, std::move(name))
{
}

void
TcpEndpoint::openSender(std::uint64_t flow_id, MacAddr dst, bool unlimited)
{
    auto [it, fresh] = senders_.try_emplace(flow_id);
    if (!fresh)
        return;
    it->second.dst = dst;
    it->second.flow = std::make_unique<TcpSenderFlow>(
        ctx(), [this] { pump(); }, totals_);
    if (unlimited)
        it->second.flow->setUnlimited();
    it->second.flow->setEventHook([this, flow_id](const char *what) {
        CDNA_TRACE_INSTANT_ARG(ctx().tracer(), traceLane(), what, now(),
                               "flow", flow_id);
    });
}

std::uint64_t
TcpEndpoint::offer(std::uint64_t flow_id, std::uint64_t bytes)
{
    auto it = senders_.find(flow_id);
    SIM_ASSERT(it != senders_.end(), "offer to unopened tcp flow");
    std::uint64_t accepted = it->second.flow->offer(bytes);
    pump();
    return accepted;
}

void
TcpEndpoint::shutdown()
{
    if (shutdown_)
        return;
    shutdown_ = true;
    for (auto &[id, s] : senders_)
        s.flow->cancelTimers();
    for (auto &[key, rf] : receivers_)
        rf->cancelTimers();
    pendingAcks_.clear();
}

std::uint64_t
TcpEndpoint::sndUnaTotal() const
{
    std::uint64_t n = 0;
    for (const auto &[id, s] : senders_)
        n += s.flow->sndUna();
    return n;
}

std::uint64_t
TcpEndpoint::armedTimers() const
{
    std::uint64_t n = 0;
    for (const auto &[id, s] : senders_)
        n += s.flow->rtoArmed() ? 1 : 0;
    for (const auto &[key, rf] : receivers_)
        n += rf->delAckArmed() ? 1 : 0;
    return n;
}

void
TcpEndpoint::onPacket(const Packet &pkt)
{
    if (shutdown_)
        return;
    if (pkt.tcpAck) {
        nAcksRx_.inc();
        auto it = senders_.find(pkt.flowId);
        if (it != senders_.end())
            it->second.flow->onAck(pkt.ackNo); // on-ready pumps
        return;
    }
    if (!pkt.tcpData)
        return;
    auto key = std::make_pair(pkt.src, pkt.flowId);
    auto &rf = receivers_[key];
    if (!rf) {
        rf = std::make_unique<TcpReceiverFlow>(
            ctx(),
            [this, src = pkt.src, fid = pkt.flowId](std::uint64_t ack_no) {
                sendAck({src, fid, ack_no});
            });
    }
    std::uint64_t delivered = rf->onSegment(pkt.seq, pkt.payloadBytes);
    if (delivered > 0) {
        nDelivered_.inc(delivered);
        CDNA_TRACE_INSTANT_ARG(ctx().tracer(), traceLane(), "deliver",
                               now(), "bytes", delivered);
        if (deliver_)
            deliver_(pkt, delivered);
    }
}

void
TcpEndpoint::sendAck(const AckOut &ao)
{
    // An ACK never overtakes a refused one: the sender would read the
    // older cumulative ACK, arriving later, as a duplicate.
    if (pendingAcks_.empty() && ackTx_ && ackTx_(ao))
        nAcksTx_.inc();
    else
        pendingAcks_.push_back(ao);
}

void
TcpEndpoint::pump()
{
    if (pumping_ || shutdown_)
        return;
    pumping_ = true;
    while (!pendingAcks_.empty() && ackTx_ && ackTx_(pendingAcks_.front())) {
        pendingAcks_.pop_front();
        nAcksTx_.inc();
    }
    bool progress = segmentTx_ != nullptr;
    bool blocked = false;
    while (progress && !blocked) {
        progress = false;
        for (auto &[id, s] : senders_) {
            auto seg = s.flow->peekSegment();
            if (!seg)
                continue;
            SegmentOut so{s.dst, id, seg->seq, seg->len, seg->rtx};
            if (!segmentTx_(so)) {
                blocked = true; // owner backpressure: retry on next pump
                break;
            }
            s.flow->commitSegment(*seg);
            progress = true;
        }
    }
    CDNA_TRACE_COUNTER(ctx().tracer(), traceLane(), "cwnd_bytes", now(),
                       cwndBytes());
    pumping_ = false;

    if (bufFreed_ && !notifying_) {
        notifying_ = true;
        for (auto &[id, s] : senders_)
            if (std::uint64_t freed = s.flow->takeFreed())
                bufFreed_(id, freed);
        notifying_ = false;
    }
}

TcpSenderFlow *
TcpEndpoint::senderFlow(std::uint64_t flow_id)
{
    auto it = senders_.find(flow_id);
    return it == senders_.end() ? nullptr : it->second.flow.get();
}

double
TcpEndpoint::cwndBytes() const
{
    double sum = 0.0;
    for (const auto &[id, s] : senders_)
        sum += static_cast<double>(s.flow->cwnd());
    return sum;
}

} // namespace cdna::net::transport
