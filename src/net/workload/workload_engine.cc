#include "net/workload/workload_engine.hh"

#include <algorithm>

#include "sim/assert.hh"

namespace cdna::net::workload {

WorkloadEngine::WorkloadEngine(sim::SimContext &ctx, std::string name,
                               Port &port, MacAddr src, WorkloadSpec spec)
    : SimObject(ctx, std::move(name)),
      port_(port),
      spec_(std::move(spec)),
      rng_(workloadStreamSeed(spec_.seed) ^ src.hash()),
      rr_(spec_.classes.size(), 0),
      frames_(src),
      rpcLatency_(kRpcHistBuckets, kRpcHistSubBits)
{
    for (std::size_t c = 0; c < spec_.classes.size(); ++c) {
        SIM_ASSERT(spec_.classes[c].kind == FlowKind::kRpc,
                   "saturating classes run on the peer's own source, "
                   "not the engine");
        if (spec_.classes[c].ratePerSec > 0.0 && !spec_.targets.empty())
            scheduleNextArrival(c);
    }
}

void
WorkloadEngine::scheduleNextArrival(std::size_t c)
{
    double mean =
        static_cast<double>(sim::kSecond) / spec_.classes[c].ratePerSec;
    auto gap = std::max<sim::Time>(
        1, static_cast<sim::Time>(rng_.exponential(mean)));
    events().schedule(gap, [this, c] { onArrival(c); });
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
WorkloadEngine::onArrival(std::size_t c)
{
    // Requests ride in one wire frame; the response does the heavy
    // lifting (and is TSO-chunked by the guest's normal TX path).
    std::uint64_t id = nextRpcId_++;

    Outstanding o;
    o.sentAt = now();
    o.timeout =
        events().schedule(kRpcTimeout, [this, id] { onRpcTimeout(id); });
    outstanding_.emplace(id, o);

    Packet pkt = frames_.data(nextTarget(c), kRpcRequestBytes, id, now());
    pkt.rpcReq = true;
    nFlowsStarted_.inc();
    nRpcRequests_.inc();
    port_.send(std::move(pkt));

    scheduleNextArrival(c);
}

void
WorkloadEngine::onRpcResponse(const Packet &pkt)
{
    auto it = outstanding_.find(pkt.flowId);
    if (it == outstanding_.end())
        return; // already timed out (late response) or not ours
    Outstanding &o = it->second;
    o.gotBytes += pkt.payloadBytes;
    if (o.gotBytes < kRpcResponseBytes)
        return;
    rpcLatency_.record(now() - o.sentAt);
    events().cancel(o.timeout);
    outstanding_.erase(it);
    nRpcResponses_.inc();
    nFlowsCompleted_.inc();
}

void
WorkloadEngine::onRpcTimeout(std::uint64_t id)
{
    if (outstanding_.erase(id))
        nRpcTimeouts_.inc();
}

} // namespace cdna::net::workload
