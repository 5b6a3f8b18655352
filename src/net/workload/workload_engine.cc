#include "net/workload/workload_engine.hh"

#include <algorithm>
#include <cmath>

#include "sim/assert.hh"

namespace cdna::net::workload {

namespace {

/** Packet ids from a high base so engine frames never collide with the
 *  peer's open-loop source ids (which count up from 1). */
constexpr std::uint64_t kEnginePktIdBase = 0x4000'0000'0000'0000ull;
/** Bulk TCP flow ids, clear of the peer's legacy 0x1000+i flows. */
constexpr std::uint64_t kBulkFlowBase = 0x100000ull;

} // namespace

WorkloadEngine::WorkloadEngine(sim::SimContext &ctx, std::string name,
                               Port &port, MacAddr src,
                               transport::TcpEndpoint *tcp,
                               WorkloadSpec spec)
    : SimObject(ctx, std::move(name)),
      port_(port),
      src_(src),
      tcp_(tcp),
      spec_(std::move(spec)),
      rng_(workloadStreamSeed(spec_.seed) ^ src.hash()),
      rr_(spec_.classes.size(), 0),
      nextBulkFlow_(kBulkFlowBase),
      nextPktId_(kEnginePktIdBase),
      rpcLatencyHist_(kRpcHistBuckets, kRpcHistSubBits),
      nFlowsStarted_(stats().addCounter("flows_started")),
      nFlowsCompleted_(stats().addCounter("flows_completed")),
      nRpcRequests_(stats().addCounter("rpc_requests")),
      nRpcResponses_(stats().addCounter("rpc_responses")),
      nRpcTimeouts_(stats().addCounter("rpc_timeouts"))
{
    for (const auto &fc : spec_.classes) {
        SIM_ASSERT(fc.arrival != Arrival::kSaturate,
                   "saturating classes run on the peer's legacy source, "
                   "not the engine");
        SIM_ASSERT(fc.arrival != Arrival::kClosedLoop ||
                       fc.kind != FlowKind::kOpenLoopStream,
                   "closed-loop needs a completion signal (RPC or TCP)");
        SIM_ASSERT(fc.kind != FlowKind::kBulkTcp || tcp_,
                   "kBulkTcp classes require the peer's TCP endpoint");
    }
    if (tcp_)
        tcp_->setBufFreed([this](std::uint64_t flow, std::uint64_t bytes) {
            onBufFreed(flow, bytes);
        });
}

void
WorkloadEngine::start()
{
    if (started_ || spec_.targets.empty())
        return;
    started_ = true;
    for (std::size_t c = 0; c < spec_.classes.size(); ++c) {
        const FlowClass &fc = spec_.classes[c];
        if (fc.arrival == Arrival::kClosedLoop) {
            for (std::uint32_t i = 0; i < fc.concurrency; ++i)
                launch(c);
        } else if (fc.ratePerSec > 0.0) {
            scheduleNextArrival(c);
        }
    }
}

sim::Time
WorkloadEngine::drawInterarrival(const FlowClass &fc)
{
    // Mean interarrival in simulated-time units; ON/OFF compresses the
    // same mean rate into the ON fraction of each burst period.
    double rate = fc.ratePerSec;
    if (fc.arrival == Arrival::kOnOff && fc.onFraction > 0.0)
        rate /= fc.onFraction;
    double mean = static_cast<double>(sim::kSecond) / rate;
    double draw = fc.arrival == Arrival::kFixedRate
                      ? mean
                      : rng_.exponential(mean);
    return std::max<sim::Time>(1, static_cast<sim::Time>(draw));
}

void
WorkloadEngine::scheduleNextArrival(std::size_t c)
{
    events().schedule(drawInterarrival(spec_.classes[c]),
                      [this, c] { onArrival(c); });
}

void
WorkloadEngine::onArrival(std::size_t c)
{
    const FlowClass &fc = spec_.classes[c];
    bool off_phase = false;
    if (fc.arrival == Arrival::kOnOff && fc.burstPeriod > 0) {
        // Phase is a pure function of time: arrivals landing in the
        // OFF window are suppressed, which thins the boosted ON rate
        // back to the configured mean.
        sim::Time phase = now() % fc.burstPeriod;
        auto on_len = static_cast<sim::Time>(
            fc.onFraction * static_cast<double>(fc.burstPeriod));
        off_phase = phase >= on_len;
    }
    if (!off_phase)
        launch(c);
    scheduleNextArrival(c);
}

void
WorkloadEngine::launch(std::size_t c)
{
    switch (spec_.classes[c].kind) {
      case FlowKind::kRpc:
        issueRpc(c);
        break;
      case FlowKind::kBulkTcp:
        startBulkFlow(c);
        break;
      case FlowKind::kOpenLoopStream:
        sendStreamBurst(c);
        break;
    }
}

std::uint64_t
WorkloadEngine::drawSize(const FlowClass &fc)
{
    std::uint64_t lo = std::max<std::uint64_t>(1, fc.sizeBytes);
    std::uint64_t hi = std::max(lo, fc.sizeMaxBytes);
    switch (fc.sizeDist) {
      case SizeDist::kFixed:
        return lo;
      case SizeDist::kUniform:
        return lo + rng_.below(hi - lo + 1);
      case SizeDist::kBoundedPareto: {
        // Inverse-CDF of the bounded Pareto on [lo, hi].
        double a = fc.paretoAlpha;
        double u = rng_.uniform();
        double lr = std::pow(static_cast<double>(lo) /
                                 static_cast<double>(hi),
                             a);
        double x = static_cast<double>(lo) /
                   std::pow(1.0 - u * (1.0 - lr), 1.0 / a);
        return std::clamp(static_cast<std::uint64_t>(x), lo, hi);
      }
    }
    return lo;
}

MacAddr
WorkloadEngine::nextTarget(std::size_t c)
{
    const auto &t = spec_.targets;
    MacAddr dst = t[rr_[c] % t.size()];
    rr_[c] = (rr_[c] + 1) % t.size();
    return dst;
}

void
WorkloadEngine::issueRpc(std::size_t c)
{
    const FlowClass &fc = spec_.classes[c];
    // Requests ride in one wire frame; the response does the heavy
    // lifting (and is TSO-chunked by the guest's normal TX path).
    std::uint64_t req_bytes = std::min<std::uint64_t>(drawSize(fc), kMss);
    std::uint64_t id = nextRpcId_++;

    Outstanding o;
    o.classIdx = c;
    o.sentAt = now();
    o.expectedBytes =
        std::max<std::uint64_t>(1, std::min<std::uint64_t>(fc.rpcRespBytes,
                                                           kMaxTsoBytes));
    o.timeout =
        events().schedule(fc.rpcTimeout, [this, id] { onRpcTimeout(id); });
    outstanding_.emplace(id, o);

    Packet pkt;
    pkt.src = src_;
    pkt.dst = nextTarget(c);
    pkt.payloadBytes = static_cast<std::uint32_t>(req_bytes);
    pkt.id = nextPktId_++;
    pkt.flowId = id;
    pkt.created = now();
    pkt.rpcReq = true;
    pkt.rpcId = id;
    pkt.rpcRespBytes = fc.rpcRespBytes;
    nFlowsStarted_.inc();
    nRpcRequests_.inc();
    port_.send(std::move(pkt));
}

void
WorkloadEngine::onRpcResponse(const Packet &pkt)
{
    auto it = outstanding_.find(pkt.rpcId);
    if (it == outstanding_.end())
        return; // already timed out (late response) or not ours
    Outstanding &o = it->second;
    o.gotBytes += pkt.payloadBytes;
    if (o.gotBytes < o.expectedBytes)
        return;
    double us = sim::toMicroseconds(now() - o.sentAt);
    rpcLatency_.record(us);
    rpcLatencyHist_.record(static_cast<std::uint64_t>(us));
    events().cancel(o.timeout);
    std::size_t c = o.classIdx;
    outstanding_.erase(it);
    nRpcResponses_.inc();
    nFlowsCompleted_.inc();
    if (spec_.classes[c].arrival == Arrival::kClosedLoop)
        issueRpc(c);
}

void
WorkloadEngine::onRpcTimeout(std::uint64_t id)
{
    auto it = outstanding_.find(id);
    if (it == outstanding_.end())
        return;
    std::size_t c = it->second.classIdx;
    outstanding_.erase(it);
    nRpcTimeouts_.inc();
    if (spec_.classes[c].arrival == Arrival::kClosedLoop)
        issueRpc(c);
}

void
WorkloadEngine::startBulkFlow(std::size_t c)
{
    const FlowClass &fc = spec_.classes[c];
    std::uint64_t bytes = drawSize(fc);
    std::uint64_t flow = nextBulkFlow_++;
    tcp_->openSender(flow, nextTarget(c));
    bulkUnacked_[flow] = bytes;
    bulkClass_[flow] = c;
    std::uint64_t accepted = tcp_->offer(flow, bytes);
    if (accepted < bytes)
        bulkPending_[flow] = bytes - accepted;
    nFlowsStarted_.inc();
    tcp_->pump();
}

void
WorkloadEngine::onBufFreed(std::uint64_t flow, std::uint64_t bytes)
{
    auto un = bulkUnacked_.find(flow);
    if (un == bulkUnacked_.end())
        return; // not an engine flow (e.g. the peer's legacy sources)
    auto pend = bulkPending_.find(flow);
    if (pend != bulkPending_.end()) {
        std::uint64_t accepted = tcp_->offer(flow, pend->second);
        pend->second -= accepted;
        if (pend->second == 0)
            bulkPending_.erase(pend);
        tcp_->pump();
    }
    un->second -= std::min(un->second, bytes);
    if (un->second > 0 || bulkPending_.count(flow))
        return;
    std::size_t c = bulkClass_[flow];
    bulkUnacked_.erase(flow);
    bulkClass_.erase(flow);
    nFlowsCompleted_.inc();
    if (spec_.classes[c].arrival == Arrival::kClosedLoop)
        startBulkFlow(c);
}

void
WorkloadEngine::sendStreamBurst(std::size_t c)
{
    const FlowClass &fc = spec_.classes[c];
    std::uint64_t bytes = drawSize(fc);
    MacAddr dst = nextTarget(c);
    nFlowsStarted_.inc();
    while (bytes > 0) {
        auto chunk = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(bytes, kMss));
        Packet pkt;
        pkt.src = src_;
        pkt.dst = dst;
        pkt.payloadBytes = chunk;
        pkt.id = nextPktId_++;
        pkt.created = now();
        port_.send(std::move(pkt));
        bytes -= chunk;
    }
    nFlowsCompleted_.inc();
}

} // namespace cdna::net::workload
