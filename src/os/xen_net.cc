#include "os/xen_net.hh"

#include <algorithm>
#include <utility>

#include "core/cost_model.hh"
#include "sim/assert.hh"
#include "sim/fault_injector.hh"

namespace cdna::os {

using core::CostModel;

// ===================== XenVif =============================================

XenVif::XenVif(sim::SimContext &ctx, std::string name, DriverDomainNet &ddn,
               vmm::Domain &guest, net::MacAddr mac)
    : sim::SimObject(ctx, std::move(name)),
      ddn_(ddn),
      guest_(guest),
      mac_(mac)
{
    auto &hv = ddn_.hv();
    feChannel_ = &hv.createChannel(guest_, CostModel::irqEntry,
                                   [this] { frontendIrq(); });
    beChannel_ = &hv.createChannel(ddn_.driverDomain(),
                                   CostModel::irqEntry,
                                   [this] { backendIrq(); });

    // Seed the guest's RX page pool and post buffers for reception.
    auto pages = hv.mem().allocOrThrow(guest_.id(), kRingSlots + 64);
    for (auto p : pages)
        guestFreePages_.push_back(p);
    postRxBuffers();
}

bool
XenVif::canTransmit() const
{
    return txOutstanding_ + staged().size() < kRingSlots;
}

bool
XenVif::tsoCapable() const
{
    return ddn_.phys().tsoCapable();
}

void
XenVif::flush()
{
    if (feFlushPending_ || staged().empty())
        return;
    feFlushPending_ = true;
    auto n = static_cast<std::uint32_t>(staged().size());
    std::uint64_t bytes = 0;
    for (const auto &p : staged())
        bytes += p.payloadBytes;
    sim::Time cost = n * CostModel::feTxPerPacket +
        static_cast<sim::Time>(CostModel::feTxPerByteNs *
                               static_cast<double>(bytes) *
                               sim::kNanosecond);
    guest_.vcpu().post(cpu::Bucket::kOs, cost, [this] {
        feFlushPending_ = false;
        auto &grants = ddn_.hv().grants();
        while (!staged().empty()) {
            TxRequest req;
            req.pkt = takeStaged();
            mem::forEachSgPage(req.pkt.hostSg, [&](mem::PageNum p) {
                mem::GrantRef ref = grants.grantAccess(
                    guest_.id(), ddn_.driverDomain().id(), p);
                if (ref != mem::kInvalidGrant)
                    req.grants.push_back(ref);
                return true;
            });
            ++txOutstanding_;
            nTxPkts_.inc();
            txReq_.push_back(std::move(req));
        }
        // One event-channel kick covers the whole burst.
        ddn_.hv().notifyChannel(*beChannel_);
    });
}

void
XenVif::enableReconnect()
{
    armFeWatchdog();
}

void
XenVif::armFeWatchdog()
{
    if (feWatchdogArmed_)
        return;
    feWatchdogArmed_ = true;
    events().schedule(CostModel::feWatchdogPeriod,
                      [this] { feWatchdogFire(); });
}

void
XenVif::feWatchdogFire()
{
    feWatchdogArmed_ = false;
    if (feState_ == FeState::kConnected && !ddn_.backendUp()) {
        // The backend stopped answering its event channel: enter the
        // reconnect protocol.  The watchdog keeps running so a later
        // crash is detected too.
        feState_ = FeState::kWaitingReconnect;
        reconnectBackoff_ = CostModel::feReconnectBackoffBase;
        CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), "backend_dead",
                           now());
        scheduleReconnectAttempt();
    }
    armFeWatchdog();
}

void
XenVif::scheduleReconnectAttempt()
{
    events().schedule(reconnectBackoff_, [this] { attemptReconnect(); });
}

void
XenVif::attemptReconnect()
{
    if (!ddn_.backendUp()) {
        reconnectBackoff_ = std::min(reconnectBackoff_ * 2,
                                     CostModel::feReconnectBackoffMax);
        scheduleReconnectAttempt();
        return;
    }
    // Backend answered: renegotiate rings/grants on the guest's vCPU.
    guest_.vcpu().post(cpu::Bucket::kOs, CostModel::feReconnectCost,
                       [this] { completeReconnect(); });
}

void
XenVif::completeReconnect()
{
    auto &grants = ddn_.hv().grants();
    // Reclaim grants orphaned inside the crashed backend.  Their
    // mappings were revoked with the dead domain, so endGrant only
    // retires the (unmapped) entries.
    for (auto ref : orphanGrants_)
        grants.endGrant(ref, guest_.id());
    orphanGrants_.clear();

    // TX requests that were queued but never mapped survive in the
    // shared ring; everything the backend had in flight is lost.  The
    // loss is surfaced as a completion so the open-loop app window
    // reopens (the packets are already counted in tx_lost_crash); the
    // TCP transport ignores device completions and retransmits via RTO.
    if (orphanTxBytes_ > 0)
        deliverTxComplete(std::exchange(orphanTxBytes_, 0));
    txOutstanding_ = static_cast<std::uint32_t>(txReq_.size() +
                                                txResp_.size());

    // Renegotiate the RX ring: recycle the posted pages and repost.
    while (!rxReq_.empty()) {
        guestFreePages_.push_back(rxReq_.front());
        rxReq_.pop_front();
    }
    postRxBuffers();

    feState_ = FeState::kConnected;
    CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), "fe_reconnect", now());
    if (sim::FaultInjector *fi = ctx().faultInjector())
        fi->note(sim::FaultEvent::kFrontendReconnect);
    if (onReconnected_)
        onReconnected_();

    // Resume: hand the retained ring backlog to the new backend and
    // wake the stack (ring space is fully available again).
    if (!txReq_.empty())
        ddn_.hv().notifyChannel(*beChannel_);
    wake();
}

void
XenVif::backendIrq()
{
    // The backend services the ring only while the domain is alive AND
    // this frontend is formally connected: after a crash, a restarted
    // backend must not touch a ring whose reconnection handshake (which
    // resets txOutstanding_ from the ring contents) has not completed,
    // or in-flight batches would escape the reset and underflow it.
    if (!ddn_.backendUp() || feState_ != FeState::kConnected)
        return; // requests wait in the ring
    auto n = static_cast<std::uint32_t>(txReq_.size());
    if (n == 0)
        return;
    std::uint64_t bytes = 0;
    for (const auto &r : txReq_)
        bytes += r.pkt.payloadBytes;
    sim::Time cost = CostModel::backendPerWake +
        n * (CostModel::beTxPerPacket + CostModel::bridgePerPacket) +
        static_cast<sim::Time>(CostModel::beTxPerByteNs *
                               static_cast<double>(bytes) *
                               sim::kNanosecond);

    ddn_.driverDomain().vcpu().post(cpu::Bucket::kOs, cost, [this] {
        if (!ddn_.backendUp() || feState_ != FeState::kConnected)
            return; // crashed (or not yet reconnected) between wake/service
        // Count pages for the grant-map hypercall batch.
        std::uint64_t pages = 0;
        for (const auto &r : txReq_)
            pages += r.grants.size();
        auto &hv = ddn_.hv();
        hv.hypercall(static_cast<sim::Time>(pages) *
                         hv.params().grantMapPerPage,
                     [this] {
            if (!ddn_.backendUp() || feState_ != FeState::kConnected)
                return;
            auto &grants = ddn_.hv().grants();
            bool dropped_any = false;
            while (!txReq_.empty()) {
                TxRequest req = std::move(txReq_.front());
                txReq_.pop_front();
                // A request whose grants will not map (e.g. a ref the
                // hypervisor revoked at a backend crash) must not reach
                // the wire: the backend has no legal window into the
                // page.  Unwind any partial mappings and drop it.
                bool mapped_all = true;
                std::size_t ok = 0;
                for (auto ref : req.grants) {
                    if (!grants.mapGrant(ref, ddn_.driverDomain().id(),
                                         nullptr)) {
                        mapped_all = false;
                        break;
                    }
                    ++ok;
                }
                if (!mapped_all) {
                    for (std::size_t i = 0; i < ok; ++i)
                        grants.unmapGrant(req.grants[i],
                                          ddn_.driverDomain().id());
                    txResp_.push_back(XenVif::TxResponse{
                        req.pkt.payloadBytes, std::move(req.grants)});
                    dropped_any = true;
                    continue;
                }
                ddn_.bridgeTx(*this, std::move(req));
            }
            if (dropped_any)
                ddn_.hv().notifyChannel(*feChannel_);
            ddn_.phys().flush();
        });
    });
}

void
XenVif::postRxBuffers()
{
    while (rxReq_.size() < kRingSlots && !guestFreePages_.empty()) {
        rxReq_.push_back(guestFreePages_.front());
        guestFreePages_.pop_front();
    }
}

void
XenVif::frontendIrq()
{
    auto tx = static_cast<std::uint32_t>(txResp_.size());
    auto rx = static_cast<std::uint32_t>(rxResp_.size());
    if (tx == 0 && rx == 0)
        return;
    sim::Time cost =
        tx * CostModel::feTxCompletion + rx * CostModel::feRxPerPacket;

    guest_.vcpu().post(cpu::Bucket::kOs, cost, [this] {
        auto &grants = ddn_.hv().grants();
        while (!txResp_.empty()) {
            TxResponse resp = std::move(txResp_.front());
            txResp_.pop_front();
            for (auto ref : resp.grants)
                grants.endGrant(ref, guest_.id());
            SIM_ASSERT(txOutstanding_ > 0, "tx response underflow");
            --txOutstanding_;
            deliverTxComplete(resp.bytes);
        }
        while (!rxResp_.empty()) {
            net::Packet pkt = std::move(rxResp_.front());
            rxResp_.pop_front();
            nRxPkts_.inc();
            guestFreePages_.push_back(mem::pageOf(pkt.hostSg[0].addr));
            deliverRx(std::move(pkt));
        }
        postRxBuffers();
        wakeIfRoom();
    });
}

// ===================== DriverDomainNet ====================================

DriverDomainNet::DriverDomainNet(sim::SimContext &ctx, std::string name,
                                 vmm::Domain &driver_dom, NetDevice &phys)
    : sim::SimObject(ctx, std::move(name)),
      drvDom_(driver_dom),
      phys_(phys)
{
    phys_.setAutoRefill(false);
    phys_.setRxHandler([this](net::Packet pkt) { onPhysRx(std::move(pkt)); });
    phys_.setTxCompleteHandler(
        [this](std::uint64_t bytes) { onPhysTxComplete(bytes); });
}

XenVif &
DriverDomainNet::createVif(vmm::Domain &guest, net::MacAddr mac)
{
    vifs_.push_back(std::make_unique<XenVif>(
        ctx(), name() + ".vif-" + guest.name(), *this, guest, mac));
    macTable_.set(mac, vifs_.back().get());
    return *vifs_.back();
}

void
DriverDomainNet::crash()
{
    if (!backendUp_)
        return;
    backendUp_ = false;

    // Everything the backend had in flight is orphaned.  The
    // hypervisor revokes the dead domain's grant mappings separately.
    for (const auto &[vif, meta] : txMeta_)
        orphanTx(*vif, meta);
    txMeta_.clear();
    for (const auto &[vif, meta] : txCompStage_)
        orphanTx(*vif, meta);
    txCompStage_.clear();
    dropStagedRx(std::exchange(rxTouched_, {}));
    CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), "backend_crash", now());
}

void
DriverDomainNet::restart()
{
    if (backendUp_)
        return;
    backendUp_ = true;
    CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), "backend_restart",
                       now());
}

void
DriverDomainNet::orphanTx(XenVif &vif, const XenVif::TxMeta &meta)
{
    vif.orphanTxBytes_ += meta.bytes;
    vif.nLostTx_.inc();
    for (auto ref : meta.grants)
        vif.orphanGrants_.push_back(ref);
}

void
DriverDomainNet::bridgeTx(XenVif &vif, XenVif::TxRequest req)
{
    nBridgePkts_.inc();
    XenVif::TxMeta meta{std::move(req.grants), req.pkt.payloadBytes};
    if (!phys_.canTransmit()) {
        // Qdisc overflow: drop in the driver domain; the grants unwind
        // through the normal completion path.
        txCompStage_.emplace_back(&vif, std::move(meta));
        scheduleTxCompleteCollect();
        return;
    }
    txMeta_.emplace_back(&vif, std::move(meta));
    phys_.transmit(std::move(req.pkt));
}

void
DriverDomainNet::onPhysTxComplete(std::uint64_t bytes)
{
    (void)bytes;
    if (!backendUp_)
        return; // the metadata died with the domain; already orphaned
    SIM_ASSERT(!txMeta_.empty(), "tx completion without metadata");
    txCompStage_.push_back(std::move(txMeta_.front()));
    txMeta_.pop_front();
    scheduleTxCompleteCollect();
}

void
DriverDomainNet::scheduleTxCompleteCollect()
{
    if (txCompCollectPending_)
        return;
    txCompCollectPending_ = true;
    drvDom_.vcpu().post(cpu::Bucket::kOs, 0, [this] { collectTxComplete(); });
}

void
DriverDomainNet::collectTxComplete()
{
    txCompCollectPending_ = false;
    if (txCompStage_.empty())
        return;
    auto batch = std::exchange(txCompStage_, {});
    auto n = static_cast<std::uint32_t>(batch.size());

    // A crash between stage and service orphans the batch exactly as
    // if it were still staged (the lambdas own it by then).
    drvDom_.vcpu().post(cpu::Bucket::kOs, n * CostModel::beTxCompletion,
                        [this, batch = std::move(batch)]() mutable {
        if (!backendUp_) {
            for (const auto &[vif, meta] : batch)
                orphanTx(*vif, meta);
            return;
        }
        std::uint64_t pages = 0;
        for (const auto &[vif, meta] : batch)
            pages += meta.grants.size();
        auto &hvp = hv().params();
        hv().hypercall(static_cast<sim::Time>(pages) * hvp.grantUnmapPerPage,
                       [this, batch = std::move(batch)]() mutable {
            if (!backendUp_) {
                for (const auto &[vif, meta] : batch)
                    orphanTx(*vif, meta);
                return;
            }
            auto &grants = hv().grants();
            std::vector<XenVif *> touched;
            for (auto &[vif, meta] : batch) {
                for (auto ref : meta.grants)
                    grants.unmapGrant(ref, drvDom_.id());
                vif->txResp_.push_back(
                    XenVif::TxResponse{meta.bytes, std::move(meta.grants)});
                if (std::find(touched.begin(), touched.end(), vif) ==
                    touched.end())
                    touched.push_back(vif);
            }
            for (XenVif *vif : touched)
                hv().notifyChannel(*vif->feChannel_);
        });
    });
}

void
DriverDomainNet::onPhysRx(net::Packet pkt)
{
    // Both NIC models name the posted buffer a received frame fills.
    SIM_ASSERT(!pkt.hostSg.empty(), "received frame names no buffer");
    XenVif *const *entry = macTable_.find(pkt.dst);
    XenVif *vif = entry ? *entry : nullptr;
    // Deliverable only through a live bridge to a connected frontend:
    // until its reconnection handshake completes there is no
    // negotiated RX ring to deliver into.
    if (!backendUp_ || !vif ||
        vif->feState_ != XenVif::FeState::kConnected) {
        dropRx(pkt, vif);
        return;
    }
    nBridgePkts_.inc();
    if (vif->rxStage_.empty())
        rxTouched_.push_back(vif);
    vif->rxStage_.push_back(std::move(pkt));
    scheduleRxCollect();
}

void
DriverDomainNet::dropRx(const net::Packet &pkt, XenVif *vif)
{
    if (backendUp_ && !vif) {
        nNoVif_.inc();
    } else {
        nOutageDrops_.inc();
        if (vif)
            vif->nOutageDrops_.inc();
    }
    // Recycle the NIC buffer page: nothing consumed it, and the adapter
    // outlives a driver-domain crash, so reception can resume the
    // moment the domain is back.
    phys_.refillRx(mem::pageOf(pkt.hostSg[0].addr));
}

void
DriverDomainNet::dropStagedRx(const std::vector<XenVif *> &touched)
{
    // The staged frames sat in driver-domain memory when it died.
    for (XenVif *vif : touched) {
        for (const auto &pkt : vif->rxStage_)
            dropRx(pkt, vif);
        vif->rxStage_.clear();
    }
}

void
DriverDomainNet::scheduleRxCollect()
{
    if (rxCollectPending_)
        return;
    rxCollectPending_ = true;
    drvDom_.vcpu().post(cpu::Bucket::kOs, 0, [this] { collectRx(); });
}

void
DriverDomainNet::collectRx()
{
    rxCollectPending_ = false;
    if (rxTouched_.empty())
        return;
    auto touched = std::exchange(rxTouched_, {});
    std::uint32_t n = 0;
    std::uint64_t bytes = 0;
    for (XenVif *vif : touched) {
        n += static_cast<std::uint32_t>(vif->rxStage_.size());
        for (const auto &p : vif->rxStage_)
            bytes += p.payloadBytes;
    }

    sim::Time cost = CostModel::backendPerWake +
        n * (CostModel::bridgePerPacket + CostModel::beRxPerPacket) +
        static_cast<sim::Time>(CostModel::beRxPerByteNs *
                               static_cast<double>(bytes) *
                               sim::kNanosecond);
    if (rxCopyMode_) {
        // Copy mode: the memcpy runs in the driver domain.
        cost += static_cast<sim::Time>(CostModel::beRxCopyPerByteNs *
                                       static_cast<double>(bytes) *
                                       sim::kNanosecond);
    }

    // Hypervisor share: one flip exchange per packet in flip mode; a
    // grant map+unmap of the guest's posted page in copy mode.
    auto &params = hv().params();
    sim::Time hv_cost = rxCopyMode_
        ? static_cast<sim::Time>(n) *
              (params.grantMapPerPage + params.grantUnmapPerPage)
        : static_cast<sim::Time>(n) * params.pageFlipPerPage;

    // A crash while the batch waits drops it.
    drvDom_.vcpu().post(cpu::Bucket::kOs, cost,
                        [this, touched = std::move(touched), hv_cost] {
        if (!backendUp_) {
            dropStagedRx(touched);
            return;
        }
        hv().hypercall(hv_cost, [this, touched] {
            if (!backendUp_) {
                dropStagedRx(touched);
                return;
            }
            auto &grants = hv().grants();
            for (XenVif *vif : touched) {
                auto staged = std::exchange(vif->rxStage_, {});
                bool delivered = false;
                for (auto &pkt : staged) {
                    mem::PageNum pkt_page = mem::pageOf(pkt.hostSg[0].addr);
                    if (vif->rxReq_.empty()) {
                        vif->nRxDropNoBuf_.inc();
                        phys_.refillRx(pkt_page);
                        continue;
                    }
                    mem::PageNum posted = vif->rxReq_.front();
                    vif->rxReq_.pop_front();
                    if (rxCopyMode_) {
                        // Copy mode: data is copied into the guest's
                        // posted page; the NIC buffer page stays in the
                        // driver domain and is recycled immediately.
                        std::uint32_t len = pkt.hostSg[0].len;
                        pkt.hostSg = {{mem::addrOf(posted), len}};
                        phys_.refillRx(pkt_page);
                    } else {
                        // Page-flip exchange: packet page to the guest,
                        // posted guest page to the driver domain.
                        bool ok1 = grants.transferPage(drvDom_.id(),
                                                       vif->guest_.id(),
                                                       pkt_page);
                        bool ok2 = grants.transferPage(vif->guest_.id(),
                                                       drvDom_.id(),
                                                       posted);
                        SIM_ASSERT(ok1 && ok2, "page flip failed");
                        phys_.refillRx(posted);
                    }
                    vif->rxResp_.push_back(std::move(pkt));
                    delivered = true;
                }
                if (delivered)
                    hv().notifyChannel(*vif->feChannel_);
            }
        });
    });
}

} // namespace cdna::os
