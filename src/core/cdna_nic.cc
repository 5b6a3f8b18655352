#include "core/cdna_nic.hh"

#include <algorithm>
#include <span>
#include <utility>

#include "sim/assert.hh"
#include "sim/fault_injector.hh"

namespace cdna::core {

namespace {

/** Interrupt-ring slots in hypervisor memory. */
constexpr std::uint32_t kIntrRingSlots = 64;

/**
 * Doorbell storm guard: mailbox PIO writes beyond kDoorbellBurst per
 * context per kDoorbellWindow are coalesced into one deferred event at
 * the window edge instead of each costing firmware decode time.  The
 * limit is far above any legitimate driver's rate -- batching drivers
 * ring once per burst -- so only a storming context is throttled, and
 * only its own doorbells.
 */
constexpr std::uint32_t kDoorbellBurst = 64;
constexpr sim::Time kDoorbellWindow = sim::microseconds(100);

/** Firmware cost of decoding one mailbox event. */
constexpr sim::Time kFwMailboxEvent = sim::nanoseconds(400);
/** Firmware cost per descriptor validated and queued. */
constexpr sim::Time kFwPerDescriptor = sim::nanoseconds(150);
/** Firmware cost per packet moved (TX or RX). */
constexpr sim::Time kFwPerPacket = sim::nanoseconds(400);
/** Extra wire dead-time per transmitted frame (firmware dispatch). */
constexpr sim::Time kTxInterFrameGap = sim::nanoseconds(200);

} // namespace

CdnaNic::CdnaNic(sim::SimContext &ctx, std::string name, mem::PciBus &bus,
                 mem::PhysMemory &mem, mem::DeviceId dev, net::Fabric &fabric,
                 CdnaNicParams params)
    : nic::NicBase(ctx, std::move(name), bus, mem, dev, fabric),
      params_(params),
      fw_(ctx, this->name() + ".fw"),
      txBuf_(kTxBufferBytes),
      rxBuf_(kRxBufferBytes)
{
    SIM_ASSERT(params.numContexts >= 1 &&
                   params.numContexts <= nic::kMaxContexts,
               "context count out of range");
    slotOwner_.assign(params_.numContexts, kNoSlotOwner);
}

int
CdnaNic::findFreeSlot() const
{
    for (std::uint32_t s = 0; s < slotOwner_.size(); ++s)
        if (slotOwner_[s] == kNoSlotOwner)
            return static_cast<int>(s);
    return -1;
}

void
CdnaNic::claimSlot(ContextId id, std::uint32_t slot)
{
    Context &c = cxt(id);
    SIM_ASSERT(slot < slotOwner_.size() &&
                   slotOwner_[slot] == kNoSlotOwner,
               "claiming an occupied slot");
    slotOwner_[slot] = id;
    c.slot = slot;
    c.resident = true;
    ++residentNow_;
    residentPeak_ = std::max(residentPeak_, residentNow_);
}

void
CdnaNic::releaseSlot(ContextId id)
{
    Context &c = cxt(id);
    if (!c.resident)
        return;
    SIM_ASSERT(c.slot < slotOwner_.size() && slotOwner_[c.slot] == id,
               "slot/owner mismatch");
    slotOwner_[c.slot] = kNoSlotOwner;
    c.resident = false;
    SIM_ASSERT(residentNow_ > 0, "resident count underflow");
    --residentNow_;
}

CdnaNic::Context &
CdnaNic::cxt(ContextId id)
{
    SIM_ASSERT(id < contexts_.size(), "context id out of range");
    return contexts_[id];
}

const CdnaNic::Context &
CdnaNic::cxt(ContextId id) const
{
    SIM_ASSERT(id < contexts_.size(), "context id out of range");
    return contexts_[id];
}

CdnaNic::ContextId
CdnaNic::allocContext(mem::DomainId dom, net::MacAddr mac)
{
    ContextId id = 0;
    while (id < contexts_.size() && contexts_[id].allocated)
        ++id;
    if (id == contexts_.size())
        contexts_.emplace_back(); // may move every Context: none is held
    else
        contexts_[id] = Context{};
    Context &c = contexts_[id];
    c.allocated = true;
    c.dom = dom;
    c.mac = mac;
    macMap_.set(mac, id);
    // Claim a physical slot if one is free; otherwise the context
    // starts paged out (oversubscription) and the pager restores it on
    // its first doorbell.
    int slot = findFreeSlot();
    if (slot >= 0)
        claimSlot(id, static_cast<std::uint32_t>(slot));
    else
        c.resident = false;
    touchActivity(c);
    return id;
}

void
CdnaNic::revokeContext(ContextId id)
{
    Context &c = cxt(id);
    SIM_ASSERT(c.allocated, "revoking unallocated context");
    macMap_.erase(c.mac);
    if (c.resident) {
        hier_.clearContext(c.slot);
        pendingVector_ &= ~(1u << c.slot);
        releaseSlot(id);
    }
    auto it = std::find(txArb_.begin(), txArb_.end(), id);
    if (it != txArb_.end())
        txArb_.erase(it);
    // A page-out waiting on this context's in-flight ops can never
    // complete now; unblock the pager after the state is gone.
    auto done = std::move(c.pageOutDone);
    c = Context{};
    c.resident = false; // no slot until reallocated
    if (done)
        done();
}

void
CdnaNic::stallFirmware(sim::Time duration, bool watchdog_reset)
{
    fw_.stall(duration);
    if (!watchdog_reset)
        return;
    // The on-NIC watchdog expires during the stall and reboots the
    // firmware.  The event scratchpad is volatile: every doorbell rung
    // between now and the reboot -- including ones already queued -- is
    // lost, and drivers must detect the silence and re-ring.
    events().schedule(duration, [this] {
        hier_.clearAll();
        if (sim::FaultInjector *fi = ctx().faultInjector())
            fi->note(sim::FaultEvent::kFirmwareReset);
    });
}

void
CdnaNic::rebootFirmware(sim::Time down_time, sim::Time reconcile_per_cxt)
{
    // The running image dies now: the epoch bump makes every in-flight
    // continuation of the old image (descriptor fetches, packet moves,
    // completion bumps) a no-op, and the processor is busy booting the
    // new image for down_time.
    fw_.reboot(down_time);

    // Volatile SRAM state is gone.
    hier_.clearAll();
    txArb_.clear();
    txDataBusy_ = false;
    txWaitingBuffer_ = false;
    txBuf_.reset();
    rxBuf_.reset();
    if (vecTimer_ != sim::kInvalidEvent) {
        events().cancel(vecTimer_);
        vecTimer_ = sim::kInvalidEvent;
    }
    pendingVector_ = 0;

    std::uint32_t live = 0;
    for (ContextId id = 0; id < contexts_.size(); ++id) {
        Context &c = contexts_[id];
        if (!c.allocated)
            continue;
        c.inflight = 0; // in-flight ops of the dead image never complete
        if (c.pagingOut) {
            // The quiesce target died with the image; the saved state is
            // consistent (completions were reconciled as they landed),
            // so the eviction completes now and the pager proceeds.
            settlePageOut(id);
            continue;
        }
        if (!c.resident)
            continue; // paged out: state lives in host memory, untouched
        ++live;
        reconcileContext(id);
    }

    // The new image's first job walks the context table.  Its completion
    // has nothing left to do (the reboot was counted when it fired), but
    // every queued event runs its callback, so it must not be null.
    fw_.exec(reconcile_per_cxt * static_cast<sim::Time>(live), [] {});
}

void
CdnaNic::reconcileContext(ContextId id)
{
    // Reconcile against the hypervisor-validated descriptor state, after
    // a firmware reboot lost the context's volatile state or a page-in
    // restored it.  Descriptors whose payload was detached for
    // transmission but whose completions were lost form a contiguous
    // prefix above the consumed boundary (the arbiter drains in order);
    // the firmware reads back the DMA engine's completion records and
    // retires them rather than re-transmitting payload it no longer has.
    Context &c = cxt(id);
    if (c.tx.ring) {
        while (c.tx.consumer != c.tx.fetched &&
               !c.tx.ring->hasPacket(c.tx.consumer)) {
            ++c.tx.consumer;
            ++c.tx.done64;
        }
    }
    // Roll the fetch horizon back to the consumed boundary and realign
    // the expected sequence numbers with the hypervisor's stamping
    // (descriptor i carries seqno i+1).  The counts are free-running
    // 32-bit indices while the hypervisor stamps from a 64-bit stream,
    // so realignment must use the 64-bit completion shadows --
    // truncating through the 32-bit consumer desynchronizes the seqno
    // check after 2^32 descriptors.  Producer doorbells are not part of
    // the reconciled state: the guests' watchdogs (after a reboot) or
    // the pager's doorbell replay (after a page-in) re-ring them.
    for (Queue *q : {&c.tx, &c.rx}) {
        q->fetchBusy = false;
        q->producer = q->fetched = q->validated = q->used = q->consumer;
        q->nextSeqno = q->done64 + 1;
    }
    c.inTxArb = false;
    scheduleWriteback(id);
}

void
CdnaNic::configureContextRings(ContextId id, std::uint32_t tx_entries,
                               mem::PhysAddr tx_base,
                               std::uint32_t rx_entries,
                               mem::PhysAddr rx_base)
{
    Context &c = cxt(id);
    SIM_ASSERT(c.allocated, "configuring unallocated context");
    c.tx.ring.emplace(tx_entries, tx_base);
    c.rx.ring.emplace(rx_entries, rx_base);
}

void
CdnaNic::setStatusPage(ContextId id, mem::PhysAddr addr)
{
    cxt(id).statusAddr = addr;
}

void
CdnaNic::setInterruptRing(mem::PhysAddr base)
{
    intrRing_.emplace(kIntrRingSlots, base);
}

bool
CdnaNic::contextAllocated(ContextId id) const
{
    return id < contexts_.size() && contexts_[id].allocated;
}

mem::DomainId
CdnaNic::contextDomain(ContextId id) const
{
    return cxt(id).dom;
}

bool
CdnaNic::contextFaulted(ContextId id) const
{
    return cxt(id).faulted;
}

std::uint32_t
CdnaNic::allocatedContexts() const
{
    std::uint32_t n = 0;
    for (const auto &c : contexts_)
        if (c.allocated)
            ++n;
    return n;
}

std::optional<CdnaNic::ContextId>
CdnaNic::contextAtSlot(std::uint32_t slot) const
{
    if (slot >= slotOwner_.size() || slotOwner_[slot] == kNoSlotOwner)
        return std::nullopt;
    return slotOwner_[slot];
}

bool
CdnaNic::contextResident(ContextId id) const
{
    const Context &c = cxt(id);
    return c.allocated && c.resident;
}

std::uint32_t
CdnaNic::freeSlots() const
{
    std::uint32_t n = 0;
    for (std::uint32_t owner : slotOwner_)
        if (owner == kNoSlotOwner)
            ++n;
    return n;
}

sim::Time
CdnaNic::contextLastActive(ContextId id) const
{
    return cxt(id).lastActive;
}

void
CdnaNic::noteInflightDone(ContextId id)
{
    Context &c = cxt(id);
    if (c.inflight > 0)
        --c.inflight;
    if (c.pagingOut && c.inflight == 0)
        settlePageOut(id);
}

void
CdnaNic::settlePageOut(ContextId id)
{
    Context &c = cxt(id);
    if (!c.pagingOut)
        return;
    c.pagingOut = false;
    c.inflight = 0;
    // Completions that landed during the drain may have set this slot's
    // bit; the pager delivers the guest's notification instead.
    pendingVector_ &= ~(1u << c.slot);
    hier_.clearContext(c.slot);
    releaseSlot(id);
    auto done = std::move(c.pageOutDone);
    c.pageOutDone = nullptr;
    if (done)
        done();
}

void
CdnaNic::pageOutContext(ContextId id, std::function<void()> done)
{
    Context &c = cxt(id);
    SIM_ASSERT(c.allocated, "paging out unallocated context");
    SIM_ASSERT(c.resident && !c.pagingOut,
               "paging out non-resident context");
    nCxtEvictions_.inc();
    c.pagingOut = true;
    ++c.cxtEpoch; // cancels the slot's in-flight fetch chains
    // Quiesce: stop feeding new work from this context.  Staged and
    // arbitrated descriptors are dropped -- the fetch horizon rolls
    // back to the consumed boundary at page-in, so nothing is lost --
    // while in-flight datapath operations drain to their completion
    // records before the slot is surrendered.
    for (Queue *q : {&c.tx, &c.rx}) {
        q->validated = q->used;
        q->fetchBusy = false;
    }
    auto it = std::find(txArb_.begin(), txArb_.end(), id);
    if (it != txArb_.end())
        txArb_.erase(it);
    c.inTxArb = false;
    hier_.clearContext(c.slot);
    c.pageOutDone = std::move(done);
    if (c.inflight == 0)
        settlePageOut(id);
}

void
CdnaNic::pageInContext(ContextId id)
{
    Context &c = cxt(id);
    SIM_ASSERT(c.allocated, "paging in unallocated context");
    SIM_ASSERT(!c.resident && !c.pagingOut, "context already resident");
    int slot = findFreeSlot();
    SIM_ASSERT(slot >= 0, "page-in with no free slot");
    claimSlot(id, static_cast<std::uint32_t>(slot));
    nCxtPageIns_.inc();
    touchActivity(c);
    reconcileContext(id);
}

void
CdnaNic::replayDoorbells(ContextId id)
{
    Context &c = cxt(id);
    SIM_ASSERT(c.allocated && c.resident,
               "doorbell replay on non-resident context");
    // The producer mailbox words were saved and restored with the
    // context image; re-post them so the firmware picks up work rung
    // while the context was paged out.  Mailbox values are producer
    // counts, so replaying an already-serviced doorbell is harmless.
    postDoorbell(id, nic::kMboxTxProducer);
    postDoorbell(id, nic::kMboxRxProducer);
}

void
CdnaNic::seedContextCounters(ContextId id, std::uint32_t tx_base,
                             std::uint64_t tx_done64,
                             std::uint32_t rx_base,
                             std::uint64_t rx_done64)
{
    Context &c = cxt(id);
    SIM_ASSERT(c.allocated, "seeding unallocated context");
    SIM_ASSERT(static_cast<std::uint32_t>(tx_done64) == tx_base &&
                   static_cast<std::uint32_t>(rx_done64) == rx_base,
               "done64 low bits must match the 32-bit base");
    auto seed = [](Queue &q, std::uint32_t base, std::uint64_t done64) {
        q.producer = q.fetched = q.validated = q.used = q.consumer =
            q.consumerHost = base;
        q.done64 = done64;
        q.nextSeqno = done64 + 1;
    };
    seed(c.tx, tx_base, tx_done64);
    seed(c.rx, rx_base, rx_done64);
}

void
CdnaNic::pioWriteMailbox(ContextId id, std::uint32_t mbox,
                         std::uint32_t value)
{
    Context &c = cxt(id);
    SIM_ASSERT(c.allocated, "PIO to unallocated context");
    c.mailboxes.write(mbox, value);
    touchActivity(c);

    if (!c.resident || c.pagingOut) {
        // Doorbell to a paged-out context: the value is already in the
        // saved mailbox image, so nothing is lost.  The access traps to
        // the hypervisor's context pager, which restores the context
        // into a physical slot and replays the producer doorbells.
        nCxtTraps_.inc();
        if (pageFaultHandler_)
            pageFaultHandler_(id);
        return;
    }

    // Storm guard: a context ringing faster than any legitimate driver
    // ever would gets its doorbells coalesced into one deferred event
    // at the window edge.  The mailbox value is in SRAM already, so
    // nothing is lost -- the flood just stops costing firmware decode
    // time per ring, and other contexts keep their fair share.
    if (now() >= c.dbWindowEnd) {
        c.dbWindowEnd = now() + kDoorbellWindow;
        c.dbUsed = 0;
    }
    if (c.dbUsed >= kDoorbellBurst) {
        nMailboxThrottled_.inc();
        c.dbDeferred |= 1u << mbox;
        if (!c.dbTimerArmed) {
            c.dbTimerArmed = true;
            events().scheduleAt(c.dbWindowEnd, [this, id] {
                flushDeferredDoorbells(id);
            });
        }
        return;
    }
    ++c.dbUsed;
    postDoorbell(id, mbox);
}

void
CdnaNic::postDoorbell(ContextId id, std::uint32_t mbox)
{
    // The event hierarchy is indexed by physical slot (it is the
    // snooping core's scratchpad); firmware resolves the slot back to
    // the owning virtual context when it decodes the event.
    hier_.post(cxt(id).slot, mbox);
    nMailboxEvents_.inc();
    fw_.exec(kFwMailboxEvent, [this] {
        std::uint32_t slot, mb;
        if (!hier_.popLowest(&slot, &mb))
            return;
        if (auto owner = contextAtSlot(slot))
            handleMailbox(*owner, mb);
    });
}

void
CdnaNic::flushDeferredDoorbells(ContextId id)
{
    Context &c = cxt(id);
    c.dbTimerArmed = false;
    if (!c.allocated)
        return;
    if (!c.resident || c.pagingOut)
        return; // paged out meanwhile: doorbells replayed at page-in
    std::uint32_t pending = std::exchange(c.dbDeferred, 0);
    c.dbWindowEnd = now() + kDoorbellWindow;
    c.dbUsed = 0;
    for (std::uint32_t mbox = 0; pending != 0; ++mbox, pending >>= 1) {
        if (pending & 1u) {
            ++c.dbUsed;
            postDoorbell(id, mbox);
        }
    }
}

void
CdnaNic::handleMailbox(ContextId id, std::uint32_t mbox)
{
    Context &c = cxt(id);
    if (!c.allocated || c.faulted || !c.resident || c.pagingOut)
        return;
    // Only the producer mailboxes do anything in this model.
    if (mbox != nic::kMboxTxProducer && mbox != nic::kMboxRxProducer)
        return;
    bool is_tx = mbox == nic::kMboxTxProducer;
    c.queue(is_tx).producer = c.mailboxes.read(mbox);
    startFetch(id, is_tx);
}

void
CdnaNic::startFetch(ContextId id, bool is_tx)
{
    Context &c = cxt(id);
    if (c.faulted || !c.resident || c.pagingOut)
        return;
    std::optional<nic::DescFetch> f = c.queue(is_tx).beginFetch();
    if (!f)
        return;
    std::uint64_t ep = fw_.epoch();
    std::uint64_t cep = c.cxtEpoch;
    dma_.read(f->sg, c.dom, id,
              [this, id, is_tx, first = f->first, n = f->count, ep,
               cep](mem::DmaResult) {
        if (ep != fw_.epoch())
            return; // firmware rebooted mid-fetch; the new image refetches
        Context &cc = cxt(id);
        if (!cc.allocated || cc.cxtEpoch != cep)
            return; // revoked or paged out mid-fetch
        Queue &q = cc.queue(is_tx);
        q.fetchBusy = false;
        q.fetched = first + n;
        fw_.exec(n * kFwPerDescriptor,
                 [this, id, is_tx, first, n, ep, cep] {
            if (ep != fw_.epoch() || cxt(id).cxtEpoch != cep)
                return;
            validateFetched(id, is_tx, first, n);
        });
        startFetch(id, is_tx);
    });
}

bool
CdnaNic::checkSeqno(std::uint64_t seqno, std::uint64_t *next)
{
    std::uint64_t expected = *next;
    if (params_.seqnoModulus != 0)
        expected %= params_.seqnoModulus;
    if (seqno != expected)
        return false;
    ++*next;
    return true;
}

void
CdnaNic::validateFetched(ContextId id, bool is_tx, std::uint32_t first,
                         std::uint32_t count)
{
    Context &c = cxt(id);
    if (!c.allocated || c.faulted || !c.resident || c.pagingOut)
        return;
    Queue &q = c.queue(is_tx);
    for (std::uint32_t i = 0; i < count; ++i) {
        std::uint32_t pos = first + i;
        const nic::DmaDescriptor &desc = q.ring->at(pos);
        if (params_.seqnoCheck &&
            (!desc.valid() || !checkSeqno(desc.seqno, &q.nextSeqno))) {
            enterFault(id, vmm::Fault::kBadSeqno);
            return;
        }
        SIM_ASSERT(pos == q.validated, "descriptors validated out of order");
        ++q.validated;
    }
    if (is_tx)
        enqueueTxArb(id);
}

void
CdnaNic::enterFault(ContextId id, vmm::Fault f)
{
    Context &c = cxt(id);
    c.faulted = true;
    c.tx.validated = c.tx.used;
    c.rx.validated = c.rx.used;
    if (f == vmm::Fault::kBadSeqno)
        nSeqnoFaults_.inc();
    warn("context %u fault: %s", id, vmm::faultName(f));
    if (faultHandler_)
        faultHandler_(id, c.dom, f);
}

void
CdnaNic::enqueueTxArb(ContextId id)
{
    Context &c = cxt(id);
    if (c.inTxArb || c.tx.ready() == 0 || c.faulted || !c.resident ||
        c.pagingOut)
        return;
    c.inTxArb = true;
    txArb_.push_back(id);
    pumpTx();
}

void
CdnaNic::pumpTx()
{
    if (txDataBusy_ || txArb_.empty())
        return;
    ContextId id = txArb_.front();
    Context &c = cxt(id);
    if (!c.allocated || c.faulted || c.tx.ready() == 0) {
        txArb_.pop_front();
        c.inTxArb = false;
        pumpTx();
        return;
    }
    std::uint32_t pos = c.tx.used;
    const nic::DmaDescriptor &desc = c.tx.ring->at(pos);
    auto pkt_opt = c.tx.ring->detachPacket(pos);
    std::uint64_t bytes = pkt_opt ? pkt_opt->payloadBytes : desc.len();
    if (bytes == 0)
        bytes = 64; // minimum frame from a degenerate descriptor
    if (!txBuf_.tryReserve(bytes)) {
        if (pkt_opt)
            c.tx.ring->attachPacket(pos, std::move(*pkt_opt));
        txWaitingBuffer_ = true;
        return;
    }
    ++c.tx.used;
    txArb_.pop_front();
    txDataBusy_ = true;
    ++c.inflight; // page-out quiesce waits for this op to settle
    touchActivity(c);

    // Fair interleave: rotate the context to the arbiter tail while this
    // packet streams in, so other contexts transmit between its packets.
    if (c.tx.ready() != 0)
        txArb_.push_back(id);
    else
        c.inTxArb = false;
    if (c.tx.fetched - c.tx.consumer < nic::kFetchBatch)
        startFetch(id, /*is_tx=*/true);

    net::Packet pkt;
    if (pkt_opt) {
        pkt = std::move(*pkt_opt);
        nTxPackets_.inc();
    } else {
        // Stale/forged descriptor with protection off: the hardware
        // happily transmits whatever the (possibly reallocated) buffer
        // holds.
        pkt.src = c.mac;
        pkt.dst = net::MacAddr::fromId(0xFFFFFFu);
        pkt.payloadBytes = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(bytes, net::kMaxTsoBytes));
        nGhostTx_.inc();
    }

    std::uint64_t ep = fw_.epoch();
    dma_.read(desc.sg, c.dom, id,
              [this, id, bytes, ep,
               pkt = std::move(pkt)](mem::DmaResult dr) mutable {
        if (ep != fw_.epoch())
            return; // firmware rebooted: the staged frame died with it
        fw_.exec(kFwPerPacket,
                 [this, id, bytes, ep, dr, pkt = std::move(pkt)]() mutable {
            if (ep != fw_.epoch())
                return;
            txDataBusy_ = false;
            if (dr.blockedPages > 0) {
                // The IOMMU refused the payload fetch: nothing valid to
                // transmit.  Complete the descriptor without a frame.
                nIommuDrops_.inc();
                txBuf_.release(bytes);
                completeDescriptor(id, /*is_tx=*/true);
                if (std::exchange(txWaitingBuffer_, false))
                    pumpTx();
                pumpTx();
                return;
            }
            sim::Time gap = kTxInterFrameGap *
                            static_cast<sim::Time>(pkt.wireFrames());
            port_.send(std::move(pkt), gap, [this, id, bytes, ep] {
                if (ep != fw_.epoch())
                    return; // completion record reconciled at reboot
                txBuf_.release(bytes);
                completeDescriptor(id, /*is_tx=*/true);
                if (std::exchange(txWaitingBuffer_, false))
                    pumpTx();
            });
            pumpTx();
        });
    });
}

void
CdnaNic::receiveFrame(net::Packet pkt)
{
    ContextId id;
    if (const ContextId *owner = macMap_.find(pkt.dst)) {
        id = *owner;
    } else if (promiscuousCxt_.has_value()) {
        id = *promiscuousCxt_;
    } else {
        nRxDropFilter_.inc();
        return;
    }
    Context &c = cxt(id);
    if (c.faulted) {
        nRxDropFilter_.inc();
        return;
    }
    if (!c.resident || c.pagingOut) {
        // Paged-out context: its slot's MAC filter is not programmed,
        // so the frame is dropped at the wire like any unmatched MAC.
        nRxDropFilter_.inc();
        return;
    }
    if (c.rx.ready() == 0) {
        nRxDropNoDesc_.inc();
        startFetch(id, /*is_tx=*/false);
        return;
    }
    std::uint64_t bytes = pkt.payloadBytes;
    if (!rxBuf_.tryReserve(bytes)) {
        nRxDropNoBuf_.inc();
        return;
    }
    std::uint32_t pos = c.rx.used++;
    ++c.inflight;
    touchActivity(c);
    if (c.rx.ready() < nic::kFetchBatch / 2)
        startFetch(id, /*is_tx=*/false);
    // The frame names the prefix of its buffer that the DMA writes.
    pkt.hostSg = mem::sgPrefix(c.rx.ring->at(pos).sg,
                               bytes + net::kTcpIpHeader);

    std::uint64_t ep = fw_.epoch();
    fw_.exec(kFwPerPacket,
             [this, id, bytes, ep, pkt = std::move(pkt)]() mutable {
        if (ep != fw_.epoch())
            return; // firmware rebooted: frame lost with the old image
        // sg views the list the frame carries into the callback; the
        // DMA reads it only during the call.
        std::span<const mem::SgEntry> sg = pkt.hostSg;
        dma_.write(sg, cxt(id).dom, id,
                   [this, id, bytes, ep,
                    pkt = std::move(pkt)](mem::DmaResult dr) mutable {
            if (ep != fw_.epoch())
                return;
            rxBuf_.release(bytes);
            Context &ccc = cxt(id);
            if (ccc.allocated && dr.blockedPages > 0) {
                // IOMMU refused the buffer write: the frame is lost,
                // but the descriptor is consumed.
                nIommuDrops_.inc();
            } else if (ccc.allocated) {
                nRxPackets_.inc();
                ccc.rxDeliveries.push_back(std::move(pkt));
            }
            completeDescriptor(id, /*is_tx=*/false);
        });
    });
}

void
CdnaNic::completeDescriptor(ContextId id, bool is_tx)
{
    // The descriptor's datapath op is done: retire it and publish the
    // completion (status write-back plus an interrupt bit-vector
    // update) unless the context was revoked meanwhile.
    Context &c = cxt(id);
    if (c.allocated) {
        Queue &q = c.queue(is_tx);
        ++q.consumer;
        ++q.done64;
        scheduleWriteback(id);
        noteContextUpdate(id);
    }
    noteInflightDone(id);
}

std::uint32_t
CdnaNic::consumer(ContextId id, bool is_tx) const
{
    const Context &c = cxt(id);
    return (is_tx ? c.tx : c.rx).consumerHost;
}

std::vector<net::Packet>
CdnaNic::drainRx(ContextId id)
{
    return std::exchange(cxt(id).rxDeliveries, {});
}

nic::DescRing &
CdnaNic::ring(ContextId id, bool is_tx)
{
    Queue &q = cxt(id).queue(is_tx);
    SIM_ASSERT(q.ring.has_value(), "descriptor ring not configured");
    return *q.ring;
}

void
CdnaNic::scheduleWriteback(ContextId id)
{
    Context &c = cxt(id);
    if (c.statusAddr == 0) {
        // No status page configured (unit tests): publish immediately.
        c.tx.consumerHost = c.tx.consumer;
        c.rx.consumerHost = c.rx.consumer;
        return;
    }
    if (c.wbBusy) {
        c.wbAgain = true;
        return;
    }
    c.wbBusy = true;
    mem::SgEntry sg{c.statusAddr, 16};
    dma_.write({&sg, 1}, c.dom, id, [this, id](mem::DmaResult) {
        Context &cc = cxt(id);
        cc.wbBusy = false;
        if (!cc.allocated)
            return;
        cc.tx.consumerHost = cc.tx.consumer;
        cc.rx.consumerHost = cc.rx.consumer;
        if (std::exchange(cc.wbAgain, false))
            scheduleWriteback(id);
    });
}

void
CdnaNic::noteContextUpdate(ContextId id)
{
    Context &c = cxt(id);
    if (!c.resident || c.pagingOut)
        return; // the pager notifies the guest once eviction completes
    pendingVector_ |= (1u << c.slot);
    if (vecTimer_ == sim::kInvalidEvent) {
        vecTimer_ = events().schedule(params_.coalesce, [this] {
            vecTimer_ = sim::kInvalidEvent;
            fireBitVector();
        });
    }
}

void
CdnaNic::fireBitVector()
{
    if (pendingVector_ == 0)
        return;
    if (!intrRing_) {
        // No hypervisor ring configured (unit tests): raise directly.
        pendingVector_ = 0;
        raiseIrq();
        return;
    }
    if (intrRing_->full() || vecDmaBusy_) {
        // Host is behind; retry shortly (producer/consumer protocol).
        if (vecTimer_ == sim::kInvalidEvent) {
            vecTimer_ = events().schedule(sim::microseconds(5), [this] {
                vecTimer_ = sim::kInvalidEvent;
                fireBitVector();
            });
        }
        return;
    }
    std::uint32_t vec = std::exchange(pendingVector_, 0);
    vecDmaBusy_ = true;
    mem::SgEntry sg{intrRing_->producerAddr(), 4};
    dma_.write({&sg, 1}, mem::kDomHypervisor, mem::kWholeDevice,
               [this, vec](mem::DmaResult) {
        vecDmaBusy_ = false;
        intrRing_->push(vec);
        nBitVectors_.inc();
        raiseIrq();
    });
}

} // namespace cdna::core
