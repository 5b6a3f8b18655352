#include "workload/traffic_app.hh"

#include <utility>

#include "core/cost_model.hh"
#include "net/workload/workload_spec.hh"
#include "sim/assert.hh"

namespace cdna::workload {

using core::CostModel;

TrafficApp::TrafficApp(sim::SimContext &ctx, std::string name,
                       os::NetStack &stack, Params params)
    : sim::SimObject(ctx, std::move(name)),
      stack_(stack),
      params_(params)
{
    stack_.setRxDeliverHandler([this](std::uint64_t bytes,
                                      std::uint32_t pkts) {
        nReceived_.inc(bytes);
        nRxPkts_.inc(pkts);
    });
    stack_.setTxCompleteHandler([this](std::uint64_t bytes) {
        SIM_ASSERT(inFlight_ >= bytes, "window underflow");
        inFlight_ -= bytes;
        pump();
    });
    if (params_.rpcServer)
        stack_.setRpcHandler(
            [this](const net::Packet &req) { onRpc(req); });
}

void
TrafficApp::onRpc(const net::Packet &req)
{
    if (stopped_)
        return;
    // The server's work per request: one application write of the
    // response, paid in user time before the stack transmits it.
    sim::Time user_cost = CostModel::appPerWrite +
        static_cast<sim::Time>(
            CostModel::appPerByteNs *
            static_cast<double>(net::workload::kRpcResponseBytes) *
            sim::kNanosecond);
    stack_.domain().vcpu().post(cpu::Bucket::kUser, user_cost,
                                [this, req] {
        if (stopped_)
            return;
        nRpcServed_.inc();
        stack_.sendRpcResponse(req);
    });
}

void
TrafficApp::start()
{
    if (started_)
        return;
    started_ = true;
    if (!params_.transmit)
        return;

    // One reused buffer per connection, sized for a chunk.
    auto &memory = stack_.domain().hypervisor().mem();
    std::uint64_t pages_per_buf =
        (kChunkBytes + mem::kPageSize - 1) / mem::kPageSize;
    for (std::uint32_t i = 0; i < kConnections; ++i) {
        Conn c;
        c.id = i + 1;
        c.buffer = memory.allocOrThrow(stack_.domain().id(), pages_per_buf);
        conns_.push_back(std::move(c));
    }
    pump();
}

void
TrafficApp::pump()
{
    if (!started_ || stopped_ || !params_.transmit || pumpActive_)
        return;
    if (inFlight_ + kChunkBytes > kWindowBytes)
        return;
    if (!stack_.device().canTransmit())
        return; // the stack's tx-space callback will re-pump via sendBurst
    pumpActive_ = true;

    Conn &c = conns_[rr_];
    rr_ = (rr_ + 1) % conns_.size();
    inFlight_ += kChunkBytes;

    sim::Time user_cost = CostModel::appPerWrite +
        static_cast<sim::Time>(CostModel::appPerByteNs *
                               static_cast<double>(kChunkBytes) *
                               sim::kNanosecond);

    stack_.domain().vcpu().post(cpu::Bucket::kUser, user_cost,
                                [this, &c] {
        nSent_.inc(kChunkBytes);
        stack_.sendBurst(kChunkBytes, c.id, c.buffer);
        pumpActive_ = false;
        pump();
    });
}

} // namespace cdna::workload
