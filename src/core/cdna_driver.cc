#include "core/cdna_driver.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "sim/assert.hh"
#include "sim/fault_injector.hh"

namespace cdna::core {

CdnaGuestDriver::CdnaGuestDriver(sim::SimContext &ctx, std::string name,
                                 vmm::Domain &dom, CdnaNic &nic,
                                 CdnaNic::ContextId cxt, DmaProtection &prot,
                                 const CostModel &costs, net::MacAddr mac)
    : sim::SimObject(ctx, std::move(name)),
      dom_(dom),
      nic_(nic),
      cxt_(cxt),
      prot_(prot),
      costs_(costs),
      mac_(mac)
{
}

void
CdnaGuestDriver::rebind(CdnaNic::ContextId cxt)
{
    SIM_ASSERT(detached_, "rebinding an attached driver");
    cxt_ = cxt;
}

void
CdnaGuestDriver::attach()
{
    // Re-attachable: a driver detached by a domain crash starts over
    // with empty rings and counters (against a rebind()ed context).
    detached_ = false;
    txEnqueued_ = txDrained_ = 0;
    rxEnqueued_ = 0;
    txInflightBytes_.clear();
    txFlushPending_ = false;
    rxFlushPending_ = false;
    watchdogDelay_ = kWatchdogBase;

    txHandle_ = prot_.registerRing(nic_, cxt_, dom_.id(), /*is_tx=*/true);
    rxHandle_ = prot_.registerRing(nic_, cxt_, dom_.id(), /*is_tx=*/false);

    std::uint32_t entries = nic_.rxRing(cxt_).size();
    auto pages = dom_.hypervisor().mem().allocOrThrow(dom_.id(), entries);
    for (auto p : pages)
        rxRefillStage_.push_back(p);
    flushRxRefills();
    armWatchdog();
}

void
CdnaGuestDriver::armWatchdog()
{
    // The watchdog exists to recover doorbells lost to injected
    // firmware faults.  It is armed only when a fault injector is
    // installed so fault-free runs execute exactly the pre-fault
    // event sequence (see sim/fault_injector.hh).
    if (watchdogArmed_ || detached_ || !ctx().faultInjector())
        return;
    watchdogArmed_ = true;
    wdTxConsumer_ = nic_.txConsumer(cxt_);
    wdRxConsumer_ = nic_.rxConsumer(cxt_);
    events().schedule(watchdogDelay_, [this] { fireWatchdog(); });
}

void
CdnaGuestDriver::fireWatchdog()
{
    watchdogArmed_ = false;
    if (detached_)
        return;
    std::uint32_t txc = nic_.txConsumer(cxt_);
    std::uint32_t rxc = nic_.rxConsumer(cxt_);
    bool pending = txEnqueued_ != txDrained_ || rxEnqueued_ != rxc;
    bool progress = txc != wdTxConsumer_ || rxc != wdRxConsumer_;
    if (progress) {
        watchdogDelay_ = kWatchdogBase;
    } else if (pending) {
        // Work is posted but the NIC made no progress for a whole
        // watchdog period: assume the doorbells were lost and re-ring
        // both producer mailboxes with their current values.  The NIC
        // treats an unchanged producer as a no-op, so a spurious
        // timeout costs only the PIO writes.  Exponential backoff
        // keeps a genuinely wedged NIC from being hammered.
        if (sim::FaultInjector *fi = ctx().faultInjector())
            fi->note(sim::FaultEvent::kMailboxTimeout);
        watchdogDelay_ = std::min(watchdogDelay_ * 2, kWatchdogMax);
        sim::Time cost = 2 * costs_.drvPioWrite + costs_.drvIrqHandler;
        dom_.vcpu().post(cpu::Bucket::kOs, cost, [this] {
            if (detached_)
                return;
            if (sim::FaultInjector *fi = ctx().faultInjector())
                fi->note(sim::FaultEvent::kRingResync);
            nic_.pioWriteMailbox(cxt_, nic::kMboxTxProducer, txEnqueued_);
            nic_.pioWriteMailbox(cxt_, nic::kMboxRxProducer, rxEnqueued_);
            nDoorbells_.inc(2);
        });
    }
    armWatchdog();
}

void
CdnaGuestDriver::detach()
{
    if (detached_)
        return;
    detached_ = true;
    dropStaged();
    rxRefillStage_.clear();
    prot_.unpinAll(txHandle_);
    prot_.unpinAll(rxHandle_);
}

bool
CdnaGuestDriver::canTransmit() const
{
    if (detached_)
        return false;
    std::uint32_t inflight = txEnqueued_ - txDrained_;
    return inflight + staged().size() + 1 < nic_.txRing(cxt_).size();
}

void
CdnaGuestDriver::flush()
{
    if (txFlushPending_ || staged().empty() || detached_)
        return;
    txFlushPending_ = true;

    std::uint64_t pages = 0;
    for (const auto &p : staged())
        pages += mem::sgPages(p.hostSg);
    sim::Time cost =
        static_cast<sim::Time>(staged().size()) * costs_.cdnaDrvTxPerPacket +
        static_cast<sim::Time>(pages) * costs_.cdnaTranslatePerPage +
        costs_.drvPioWrite;
    if (!prot_.enabled()) {
        // Direct ring writes replace the enqueue hypercall.
        cost += static_cast<sim::Time>(staged().size()) *
                (costs_.protEnqueuePerDesc / 3);
    }

    dom_.vcpu().post(cpu::Bucket::kOs, cost, [this] {
        txFlushPending_ = false;
        if (detached_)
            return; // revoked while this task was queued; rings are gone
        std::vector<DmaProtection::Request> reqs;
        reqs.reserve(staged().size());
        while (!staged().empty()) {
            net::Packet pkt = takeStaged();
            txInflightBytes_.push_back(pkt.payloadBytes);
            nTxPkts_.inc();
            DmaProtection::Request req;
            req.sg = std::move(pkt.hostSg);
            req.pkt = std::move(pkt);
            reqs.push_back(std::move(req));
        }
        auto n = static_cast<std::uint32_t>(reqs.size());
        prot_.enqueue(txHandle_, std::move(reqs),
                      [this, n](DmaProtection::Result res) {
            if (detached_)
                return; // revoked while the hypercall was in flight
            if (res.fault != vmm::Fault::kNone) {
                nFaultsSeen_.inc();
                for (std::uint32_t i = res.accepted; i < n; ++i)
                    txInflightBytes_.pop_back();
            }
            txEnqueued_ = res.producer;
            nic_.pioWriteMailbox(cxt_, nic::kMboxTxProducer, res.producer);
            nDoorbells_.inc();
        });
    });
}

void
CdnaGuestDriver::handleIrq()
{
    if (detached_)
        return;
    std::uint32_t completed = nic_.txConsumer(cxt_) - txDrained_;
    // Claim the completions now so an overlapping IRQ cannot
    // double-count them; the task below surfaces them in order.
    txDrained_ += completed;
    auto frames = nic_.drainRx(cxt_);
    if (completed == 0 && frames.empty())
        return;

    sim::Time cost = costs_.drvIrqHandler +
        completed * costs_.cdnaDrvCompletion +
        static_cast<sim::Time>(frames.size()) * costs_.cdnaDrvRxPerPacket;

    dom_.vcpu().post(cpu::Bucket::kOs, cost,
                     [this, completed, frames = std::move(frames)]() mutable {
        for (std::uint32_t i = 0; i < completed; ++i) {
            SIM_ASSERT(!txInflightBytes_.empty(), "completion underflow");
            std::uint64_t bytes = txInflightBytes_.front();
            txInflightBytes_.pop_front();
            deliverTxComplete(bytes);
        }

        // Backend mode: delivered pages are about to be page-flipped to
        // guests, which requires their DMA pins dropped now rather than
        // at the next enqueue.
        if (!autoRefill_ && !frames.empty())
            prot_.syncUnpin(rxHandle_);

        for (auto &pkt : frames) {
            nRxPkts_.inc();
            if (autoRefill_)
                rxRefillStage_.push_back(mem::pageOf(pkt.hostSg[0].addr));
            deliverRx(std::move(pkt));
        }
        flushRxRefills();
        wakeIfRoom();
    });
}

void
CdnaGuestDriver::refillRx(mem::PageNum page)
{
    rxRefillStage_.push_back(page);
    flushRxRefills();
}

void
CdnaGuestDriver::flushRxRefills()
{
    if (rxFlushPending_ || rxRefillStage_.empty() || detached_)
        return;
    rxFlushPending_ = true;
    auto n = static_cast<std::uint32_t>(rxRefillStage_.size());
    sim::Time cost = n * costs_.cdnaTranslatePerPage + costs_.drvPioWrite;
    if (!prot_.enabled())
        cost += n * (costs_.protEnqueuePerDesc / 3);

    dom_.vcpu().post(cpu::Bucket::kOs, cost, [this] {
        rxFlushPending_ = false;
        if (detached_)
            return; // revoked while this task was queued; rings are gone
        std::vector<DmaProtection::Request> reqs;
        reqs.reserve(rxRefillStage_.size());
        for (auto p : rxRefillStage_) {
            DmaProtection::Request req;
            req.sg = {{mem::addrOf(p), net::kMtu}};
            reqs.push_back(std::move(req));
        }
        rxRefillStage_.clear();
        prot_.enqueue(rxHandle_, std::move(reqs),
                      [this](DmaProtection::Result res) {
            if (detached_)
                return; // revoked while the hypercall was in flight
            if (res.fault != vmm::Fault::kNone)
                nFaultsSeen_.inc();
            rxEnqueued_ = res.producer;
            nic_.pioWriteMailbox(cxt_, nic::kMboxRxProducer, res.producer);
            nDoorbells_.inc();
        });
    });
}

} // namespace cdna::core
