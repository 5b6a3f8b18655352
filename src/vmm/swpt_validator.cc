#include "vmm/swpt_validator.hh"

#include <algorithm>
#include <utility>

#include "sim/assert.hh"

namespace cdna::vmm {

SwptValidator::SwptValidator(sim::SimContext &ctx, std::string name,
                             Hypervisor &hv, nic::IntelNic &nic,
                             const core::CostModel &costs)
    : sim::SimObject(ctx, std::move(name)),
      hv_(hv),
      nic_(nic),
      costs_(costs)
{
}

void
SwptValidator::attach()
{
    auto &mem = hv_.mem();
    mem::PageNum tx_ring = mem.allocOne(mem::kDomHypervisor);
    mem::PageNum rx_ring = mem.allocOne(mem::kDomHypervisor);
    mem::PageNum status = mem.allocOne(mem::kDomHypervisor);

    nic_.configureTxRing(256, mem::addrOf(tx_ring));
    nic_.configureRxRing(256, mem::addrOf(rx_ring));
    nic_.setStatusBlockAddr(mem::addrOf(status));
    // One shared context, owned by the hypervisor: the device DMAs with
    // the hypervisor's identity, so a descriptor only reaches memory
    // after this layer pinned + grant-mapped its pages below.
    nic_.setDmaDomain(mem::kDomHypervisor);
    nic_.setPromiscuous(true);

    std::uint32_t entries = nic_.rxRing().size();
    for (std::uint32_t i = 0; i < entries; ++i)
        postOwnRxBuffer(mem.allocOne(mem::kDomHypervisor));
    nic_.pioWriteRxProducer(rxProducer_);

    nic_.setIrqLine([this] { onIrq(); });
}

SwptValidator::GuestId
SwptValidator::addGuest(Domain &dom, net::MacAddr mac,
                        std::function<void()> irq_handler)
{
    auto gs = std::make_unique<GuestState>();
    gs->dom = &dom;
    gs->mac = mac;
    gs->channel = &hv_.createChannel(dom, costs_.irqEntry,
                                     std::move(irq_handler));
    guests_.push_back(std::move(gs));
    const auto g = static_cast<GuestId>(guests_.size() - 1);
    byMac_.set(mac, g);
    return g;
}

SwptValidator::GuestState &
SwptValidator::state(GuestId g)
{
    SIM_ASSERT(g < guests_.size(), "bad swpt guest id");
    return *guests_[g];
}

bool
SwptValidator::guestActive(GuestId g) const
{
    return g < guests_.size() && guests_[g]->active;
}

void
SwptValidator::pinForDma(const mem::SgList &sg)
{
    auto &mem = hv_.mem();
    mem::forEachSgPage(sg, [&mem](mem::PageNum p) {
        mem.getRef(p);
        mem.noteGrantMapped(p, mem::kDomHypervisor);
        return true;
    });
}

void
SwptValidator::unpinAfterDma(const mem::SgList &sg)
{
    auto &mem = hv_.mem();
    mem::forEachSgPage(sg, [&mem](mem::PageNum p) {
        mem.clearGrantMapped(p);
        mem.putRef(p);
        return true;
    });
}

// --------------------------------------------------------------- doorbells

void
SwptValidator::txDoorbell(GuestId g, std::vector<TxReq> batch)
{
    GuestState &gs = state(g);
    if (!gs.active || batch.empty())
        return;
    nDoorbells_.inc();
    validationTime_ += costs_.swptDoorbellTrap;
    for (auto &r : batch)
        gs.pendingTx.push_back(std::move(r));
    hv_.hypercall(costs_.swptDoorbellTrap, [this, g] {
        if (!stalled_)
            processTxPending(g);
    });
}

void
SwptValidator::rxDoorbell(GuestId g, std::span<const mem::PageNum> pages)
{
    GuestState &gs = state(g);
    if (!gs.active || pages.empty())
        return;
    nDoorbells_.inc();
    validationTime_ += costs_.swptDoorbellTrap;
    for (auto p : pages)
        gs.pendingRxPost.push_back(p);
    hv_.hypercall(costs_.swptDoorbellTrap, [this, g] {
        if (!stalled_)
            processRxPending(g);
    });
}

void
SwptValidator::processTxPending(GuestId g)
{
    GuestState &gs = state(g);
    if (gs.pendingTx.empty())
        return;
    auto n = static_cast<std::uint32_t>(gs.pendingTx.size());
    for (std::uint32_t i = 0; i < n; ++i) {
        gs.validatingTx.push_back(std::move(gs.pendingTx.front()));
        gs.pendingTx.pop_front();
    }
    sim::Time cost = static_cast<sim::Time>(n) *
        (costs_.swptValidatePerDesc + costs_.swptShadowCopyPerDesc);
    validationTime_ += cost;
    hv_.cpu().runHypervisor(cost,
                            [this, g, n] { validateTxBatch(g, n); });
}

void
SwptValidator::processRxPending(GuestId g)
{
    GuestState &gs = state(g);
    if (gs.pendingRxPost.empty())
        return;
    auto n = static_cast<std::uint32_t>(gs.pendingRxPost.size());
    for (std::uint32_t i = 0; i < n; ++i) {
        gs.validatingRx.push_back(gs.pendingRxPost.front());
        gs.pendingRxPost.pop_front();
    }
    sim::Time cost = static_cast<sim::Time>(n) * costs_.swptValidatePerDesc;
    validationTime_ += cost;
    hv_.cpu().runHypervisor(cost,
                            [this, g, n] { validateRxBatch(g, n); });
}

void
SwptValidator::validateTxBatch(GuestId g, std::uint32_t n)
{
    GuestState &gs = state(g);
    auto &mem = hv_.mem();
    bool notify = false;
    for (std::uint32_t i = 0; i < n; ++i) {
        TxReq req = std::move(gs.validatingTx.front());
        gs.validatingTx.pop_front();
        if (!gs.active)
            continue; // detached while queued: the batch dies here
        // An empty sg list is a header-only frame (e.g. a bare ACK): it
        // references no payload memory, so there is nothing to audit.
        bool ok = mem::forEachSgPage(req.sg, [&](mem::PageNum p) {
            return mem.dmaAccessibleBy(p, gs.dom->id());
        });
        if (!ok) {
            // The forged descriptor dies here: it is never shadow-copied
            // to the device, so no DMA with a bad address ever starts.
            nRejected_.inc();
            hv_.recordFault(gs.dom->id(), Fault::kNotOwner);
            gs.compBytes.push_back(0); // error completion
            notify = true;
            continue;
        }
        nValidated_.inc();
        pinForDma(req.sg);

        ShadowTx &s = shadowQueue_.emplace_back();
        s.g = g;
        s.bytes = req.pkt.payloadBytes;
        s.desc.sg = std::move(req.sg);
        s.desc.flags = nic::kDescValid | nic::kDescEop;
        if (req.pkt.payloadBytes > net::kMss)
            s.desc.flags |= nic::kDescTso;
        s.pkt = std::move(req.pkt);
    }
    if (notify && gs.active)
        hv_.deliverVirtIrq(*gs.channel);
    pumpShadow();
}

void
SwptValidator::validateRxBatch(GuestId g, std::uint32_t n)
{
    GuestState &gs = state(g);
    auto &mem = hv_.mem();
    for (std::uint32_t i = 0; i < n; ++i) {
        mem::PageNum p = gs.validatingRx.front();
        gs.validatingRx.pop_front();
        if (!gs.active)
            continue;
        if (!mem.dmaAccessibleBy(p, gs.dom->id())) {
            nRejected_.inc();
            hv_.recordFault(gs.dom->id(), Fault::kNotOwner);
            continue;
        }
        nValidated_.inc();
        mem.getRef(p); // pinned while the hypervisor may copy into it
        gs.rxBufs.push_back(p);
    }
}

void
SwptValidator::pumpShadow()
{
    if (resetting_ || stalled_)
        return;
    std::uint32_t space =
        nic_.txRing().size() - (txProducer_ - nic_.txConsumer());
    bool wrote = false;
    while (space > 0 && !shadowQueue_.empty()) {
        ShadowTx s = std::move(shadowQueue_.front());
        shadowQueue_.pop_front();
        inflight_.push_back({s.g, s.bytes, s.desc.sg});
        nic_.txRing().write(txProducer_, std::move(s.desc));
        nic_.txRing().attachPacket(txProducer_, std::move(s.pkt));
        ++txProducer_;
        --space;
        wrote = true;
    }
    if (wrote)
        nic_.pioWriteTxProducer(txProducer_);
}

// --------------------------------------------------------------- interrupt

void
SwptValidator::onIrq()
{
    hv_.physicalInterrupt(hv_.params().virtIrqDeliver,
                          [this] { handleIrq(); });
}

void
SwptValidator::handleIrq()
{
    if (stalled_ || resetting_)
        return; // validator software is down; state drains at restart
    std::uint32_t completed = nic_.txConsumer() - txDrained_;
    txDrained_ += completed;
    std::size_t first = rxTaken_.size();
    std::uint32_t n = nic_.drainRx(rxTaken_);

    // Cost of the hypervisor-side bottom half: lazy unpin of completed
    // descriptors, demux decision + copy for each received frame.
    std::uint64_t unpin_pages = 0;
    for (std::uint32_t i = 0; i < completed && i < inflight_.size(); ++i)
        unpin_pages += mem::sgPages(inflight_[i].sg);
    sim::Time cost =
        static_cast<sim::Time>(unpin_pages) * costs_.protUnpinPerPage;
    for (std::size_t i = first; i < rxTaken_.size(); ++i)
        cost += costs_.bridgePerPacket +
            static_cast<sim::Time>(costs_.swptRxCopyPerByteNs *
                                   static_cast<double>(
                                       rxTaken_[i].payloadBytes) *
                                   sim::kNanosecond);

    hv_.cpu().runHypervisor(cost, [this, completed, n] {
        notify_.assign(guests_.size(), 0);

        for (std::uint32_t i = 0; i < completed; ++i) {
            SIM_ASSERT(!inflight_.empty(), "swpt completion underflow");
            Inflight f = std::move(inflight_.front());
            inflight_.pop_front();
            unpinAfterDma(f.sg);
            GuestState &gs = state(f.g);
            if (gs.active) {
                gs.compBytes.push_back(f.bytes);
                notify_[f.g] = true;
            }
        }

        for (std::uint32_t i = 0; i < n; ++i) {
            net::Packet pkt = std::move(rxTaken_.front());
            rxTaken_.pop_front();
            // Recycle the hypervisor-owned buffer this frame landed in.
            postOwnRxBuffer(mem::pageOf(pkt.hostSg[0].addr));

            const GuestId *dst_id = byMac_.find(pkt.dst);
            if (!dst_id) {
                nRxDemuxDrop_.inc();
                continue;
            }
            GuestState *dst = guests_[*dst_id].get();
            if (dst->rxBufs.empty()) {
                nRxNoBuf_.inc();
                continue;
            }
            mem::PageNum page = dst->rxBufs.front();
            dst->rxBufs.pop_front();
            hv_.mem().putRef(page); // back under guest control
            // The frame is copied into the guest's posted page.
            std::uint32_t len = pkt.hostSg[0].len;
            pkt.hostSg = {{mem::addrOf(page), len}};
            dst->rxMail.push_back(std::move(pkt));
            notify_[*dst_id] = true;
        }
        nic_.pioWriteRxProducer(rxProducer_);

        for (GuestId g = 0; g < guests_.size(); ++g)
            if (notify_[g] && guests_[g]->active)
                hv_.deliverVirtIrq(*guests_[g]->channel);

        pumpShadow();
    });
}

void
SwptValidator::postOwnRxBuffer(mem::PageNum page)
{
    nic::DmaDescriptor desc;
    desc.sg = {{mem::addrOf(page), net::kMtu}};
    desc.flags = nic::kDescValid;
    nic_.rxRing().write(rxProducer_, std::move(desc));
    ++rxProducer_;
}

// --------------------------------------------------------------- mailboxes

std::uint32_t
SwptValidator::takeCompletions(GuestId g, sim::Fifo<std::uint64_t> &out)
{
    return sim::moveAllInto(state(g).compBytes, out);
}

std::uint32_t
SwptValidator::takeRx(GuestId g, sim::Fifo<net::Packet> &out)
{
    return sim::moveAllInto(state(g).rxMail, out);
}

// --------------------------------------------------------------- faults

void
SwptValidator::stall()
{
    stalled_ = true;
}

void
SwptValidator::restart()
{
    if (!stalled_)
        return;
    stalled_ = false;
    for (GuestId g = 0; g < guests_.size(); ++g) {
        processTxPending(g);
        processRxPending(g);
    }
    handleIrq(); // drain completions / receives held during the stall
}

void
SwptValidator::detachGuest(GuestId g)
{
    GuestState &gs = state(g);
    if (!gs.active)
        return;
    gs.active = false;
    byMac_.erase(gs.mac);
    nDetachDrops_.inc(gs.pendingTx.size());
    gs.pendingTx.clear();
    gs.pendingRxPost.clear();
    auto &mem = hv_.mem();
    for (auto p : gs.rxBufs)
        mem.putRef(p);
    gs.rxBufs.clear();
    gs.rxMail.clear();
    gs.compBytes.clear();
    // Flush its accepted-but-unposted descriptors; in-flight ones stay
    // pinned until the NIC consumes them.  One pass around the queue
    // keeps the others' descriptors in order.
    for (std::size_t i = 0, n = shadowQueue_.size(); i < n; ++i) {
        ShadowTx s = std::move(shadowQueue_.front());
        shadowQueue_.pop_front();
        if (s.g == g) {
            unpinAfterDma(s.desc.sg);
            nDetachDrops_.inc();
        } else {
            shadowQueue_.push_back(std::move(s));
        }
    }
}

std::uint64_t
SwptValidator::resetNic()
{
    resetting_ = true;
    return nic_.quiesceTx();
}

void
SwptValidator::reconcileAfterReset()
{
    resetting_ = false;
    handleIrq();
}

} // namespace cdna::vmm
