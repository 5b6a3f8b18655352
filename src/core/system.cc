#include "core/system.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "net/workload/workload_engine.hh"
#include "sim/assert.hh"
#include "sim/metrics_registry.hh"

namespace cdna::core {

namespace {

/** A CDNA system pages its contexts exactly when guests outnumber them. */
bool
pagesContexts(const SystemConfig &cfg)
{
    return cfg.arch == Arch::kCdna && cfg.numGuests > cfg.cdnaContexts;
}

SystemConfig
archConfig(Arch arch, std::uint32_t guests)
{
    SystemConfig cfg;
    cfg.arch = arch;
    cfg.numGuests = guests;
    return cfg;
}

} // namespace

System::System(SystemConfig cfg) : System(std::move(cfg), nullptr, 0, {})
{
}

System::System(SystemConfig cfg, sim::SimContext &shared, std::uint32_t host,
               std::vector<net::Fabric *> nic_fabrics)
    : System(std::move(cfg), &shared, host, std::move(nic_fabrics))
{
}

System::System(SystemConfig cfg, sim::SimContext *shared, std::uint32_t host,
               std::vector<net::Fabric *> nic_fabrics)
    : cfg_(std::move(cfg)),
      hostId_(host),
      prefix_(host == 0 ? "" : "h" + std::to_string(host) + "."),
      ownedCtx_(shared ? nullptr
                       : std::make_unique<sim::SimContext>(cfg_.seed)),
      ctx_(shared ? *shared : *ownedCtx_),
      extFabrics_(std::move(nic_fabrics))
{
    // Guest/driver MAC blocks are 1 Mi ids apart; cap hostId well clear
    // of the 0xFE0000 range traffic peers hash their names into.
    SIM_ASSERT(hostId_ <= 12, "hostId out of range for the MAC plan");
    // Install the injector before any component is built so fault
    // hooks (driver watchdogs, link faults) see it from the start.  An
    // empty plan installs nothing, keeping the run bit-identical to a
    // fault-free build.  The injector is context-global, so in a shared
    // topology at most one host may carry a fault plan.
    if (!cfg_.faults.empty()) {
        SIM_ASSERT(ctx_.faultInjector() == nullptr,
                   "shared context already has a fault plan installed");
        faults_ = std::make_unique<sim::FaultInjector>(
            ctx_, nm("faults"), cfg_.seed, cfg_.faults.rates);
        ctx_.setFaultInjector(faults_.get());
    }
    buildCommon();
    // The architecture's wiring: the one place besides the NIC choice
    // that reads it.  Native runs one OS on the NICs; every
    // virtualized architecture has a control domain (dom0) and guests.
    if (cfg_.arch == Arch::kNative) {
        guests_.push_back(&hv_->createDomain(vmm::Domain::Kind::kGuest,
                                             nm("native")));
    } else {
        driverDom_ = &hv_->createDomain(vmm::Domain::Kind::kDriver,
                                        nm("dom0"));
        for (std::uint32_t g = 0; g < cfg_.numGuests; ++g)
            guests_.push_back(&hv_->createDomain(
                vmm::Domain::Kind::kGuest, nm("guest" + std::to_string(g))));
    }
    switch (cfg_.arch) {
      case Arch::kNative:
        buildNative();
        break;
      case Arch::kXenRice:
        prot_ = std::make_unique<DmaProtection>(
            ctx_, nm("dma-protection"), *hv_, cfg_.costs, /*enabled=*/true);
        [[fallthrough]];
      case Arch::kXenIntel:
        buildXen();
        break;
      case Arch::kCdna:
        prot_ = std::make_unique<DmaProtection>(
            ctx_, nm("dma-protection"), *hv_, cfg_.costs, cfg_.dmaProtection);
        buildCdna();
        break;
      case Arch::kSwpt:
        buildSwpt();
        break;
    }
    startTimers();
    if (faults_) {
        setupAvailability();
        scheduleFaultEvents();
    }
}

System::~System()
{
    if (faults_ && ctx_.faultInjector() == faults_.get())
        ctx_.setFaultInjector(nullptr);
}

net::MacAddr
System::guestMac(std::uint32_t guest, std::uint32_t nic) const
{
    // Host 0 is bit-identical to the classic single-host layout; other
    // hosts shift into disjoint 1 Mi-id blocks of the 24-bit MAC space.
    return net::MacAddr::fromId(hostId_ * 0x00100000u + 0x010000u +
                                guest * 256u + nic);
}

net::MacAddr
System::driverMac(std::uint32_t nic) const
{
    return net::MacAddr::fromId(hostId_ * 0x00100000u + 0x020000u +
                                nic);
}

net::Port &
System::nicPort(std::uint32_t i)
{
    return *nicPorts_[i];
}

void
System::buildCommon()
{
    mem_ = std::make_unique<mem::PhysMemory>(ctx_, nm("phys-mem"),
                                             256 * 1024); // 1 GB
    cpu_ = std::make_unique<cpu::SimCpu>(ctx_, nm("cpu0"),
                                         CostModel::cpuParams,
                                         nm("hypervisor"));
    hv_ = std::make_unique<vmm::Hypervisor>(ctx_, *cpu_, *mem_,
                                            cfg_.costs.hv, prefix_);
    if (cfg_.iommuMode != mem::Iommu::Mode::kNone)
        iommu_ = std::make_unique<mem::Iommu>(ctx_, nm("iommu"), *mem_,
                                              cfg_.iommuMode);

    bool intel = cfg_.arch == Arch::kNative ||
                 cfg_.arch == Arch::kXenIntel || cfg_.arch == Arch::kSwpt;
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        std::string suffix = std::to_string(i);
        buses_.push_back(
            std::make_unique<mem::PciBus>(ctx_, nm("pci" + suffix)));
        net::Fabric *fab = nullptr;
        if (nicExternal(i)) {
            // The topology builder owns the fabric (and whatever peers
            // sit on its far ports); this NIC only binds a port.
            links_.push_back(nullptr);
            peers_.push_back(nullptr);
            fab = extFabrics_[i];
        } else {
            links_.push_back(
                std::make_unique<net::EthLink>(ctx_, nm("eth" + suffix)));
            peers_.push_back(std::make_unique<net::TrafficPeer>(
                ctx_, nm("peer" + suffix), *links_.back()));
            net::workload::WorkloadSpec knobs;
            knobs.ackingEvery(CostModel::ackPerFrames);
            if (cfg_.transportKind == TransportKind::kTcp)
                knobs.overTcp();
            peers_.back()->applyWorkload(knobs);
            fab = links_.back().get();
        }
        if (intel) {
            intelNics_.push_back(std::make_unique<nic::IntelNic>(
                ctx_, nm("intel" + suffix), *buses_.back(), *mem_, i,
                *fab, CostModel::intelCoalesce));
            nicPorts_.push_back(&intelNics_.back()->port());
            if (iommu_)
                intelNics_.back()->dma().setIommu(iommu_.get());
        } else {
            CdnaNicParams params;
            params.numContexts = cfg_.cdnaContexts;
            params.coalesce = cfg_.transmitDir ? cfg_.costs.cdnaCoalesce
                                               : CostModel::cdnaCoalesceRx;
            params.seqnoCheck = cfg_.dmaProtection;
            cdnaNics_.push_back(std::make_unique<CdnaNic>(
                ctx_, nm("cdna" + suffix), *buses_.back(), *mem_, i,
                *fab, params));
            nicPorts_.push_back(&cdnaNics_.back()->port());
            if (iommu_)
                cdnaNics_.back()->dma().setIommu(iommu_.get());
            cxtChannels_.emplace_back();
        }
    }
}

void
System::registerGauges(sim::MetricsRegistry &metrics)
{
    // A utilization gauge reports the busy share of the time since its
    // previous sample, in percent, of the cumulative time busy() reads.
    // resetAccounting() can move that time backwards; the sample after
    // it reads 0.  All callbacks are read-only with respect to
    // simulated state, so sampling cannot perturb results.
    auto add_util = [this, &metrics](std::string name, auto busy) {
        metrics.addGauge(
            std::move(name), [this, busy, prev = sim::Time{0},
                              prevAt = sim::Time{0}]() mutable {
                sim::Time b = busy();
                sim::Time at = ctx_.events().now();
                double pct = 0.0;
                if (b >= prev && at > prevAt)
                    pct = 100.0 * static_cast<double>(b - prev) /
                          static_cast<double>(at - prevAt);
                prev = b;
                prevAt = at;
                return pct;
            });
    };

    for (const auto &dom : hv_->domains()) {
        const vmm::Domain *d = dom.get();
        add_util("cpu." + d->name() + ".util_pct", [this, d] {
            const auto &prof = cpu_->profile();
            return prof.domainTime(d->id(), cpu::Bucket::kOs) +
                   prof.domainTime(d->id(), cpu::Bucket::kUser);
        });
    }
    add_util("cpu.hypervisor_pct",
             [this] { return cpu_->profile().hypervisor(); });
    add_util("cpu.idle_pct", [this] {
        cpu_->syncIdle(); // flush the in-progress idle span
        return cpu_->profile().idle();
    });

    for (const auto &nicp : cdnaNics_) {
        CdnaNic *nic = nicp.get();
        add_util("nic." + nic->name() + ".fw_util_pct",
                 [nic] { return nic->firmwareBusyTime(); });
        metrics.addGauge(
            "nic." + nic->name() + ".intr_ring_occupancy", [nic] {
                const InterruptRing *ring = nic->interruptRing();
                if (!ring)
                    return 0.0;
                return static_cast<double>(ring->producer() -
                                           ring->consumer());
            });
    }
    if (prot_) {
        DmaProtection *prot = prot_.get();
        metrics.addGauge("protection.pinned_pages", [prot] {
            return static_cast<double>(prot->pagesPinned() -
                                       prot->pagesUnpinned());
        });
    }
    metrics.addGauge("sim.pending_events", [this] {
        return static_cast<double>(ctx_.events().pendingCount());
    });
    // cwnd trajectories, one gauge per transport endpoint.
    for (const auto &st : stacks_)
        if (net::transport::TcpEndpoint *t = st->tcp())
            metrics.addGauge(t->name() + ".cwnd_bytes",
                             [t] { return t->cwndBytes(); });
    for (const auto &p : peers_)
        if (p)
            if (net::transport::TcpEndpoint *t = p->tcp())
                metrics.addGauge(t->name() + ".cwnd_bytes",
                                 [t] { return t->cwndBytes(); });
    // Packets queued behind a full device, one gauge per stack.
    for (const auto &st : stacks_) {
        const os::NetStack *s = st.get();
        metrics.addGauge(s->name() + ".tx_backlog_depth", [s] {
            return static_cast<double>(s->txBacklogDepth());
        });
    }
}

void
System::wireCdnaIsr(std::uint32_t i)
{
    CdnaNic &nic = *cdnaNics_[i];
    mem::PageNum ring_page = mem_->allocOne(mem::kDomHypervisor);
    nic.setInterruptRing(mem::addrOf(ring_page));
    nic.setFaultHandler([this](CdnaNic::ContextId, mem::DomainId dom,
                               vmm::Fault f) { hv_->recordFault(dom, f); });
    nic.setIrqLine([this, i] {
        hv_->physicalInterrupt(0, [this, i] {
            InterruptRing *ring = cdnaNics_[i]->interruptRing();
            while (!ring->empty()) {
                std::uint32_t vec = ring->pop();
                while (vec != 0) {
                    auto b = static_cast<std::uint32_t>(
                        __builtin_ctz(vec));
                    vec &= vec - 1;
                    // Interrupt vectors carry physical-slot bits;
                    // resolve to the owning (virtual) context.  A slot
                    // whose owner was evicted after the DMA is stale:
                    // its guest is notified by the pager instead.
                    auto owner = cdnaNics_[i]->contextAtSlot(b);
                    if (!owner)
                        continue;
                    if (vmm::EventChannel *ch = cxtChannel(i, *owner))
                        hv_->deliverVirtIrq(*ch);
                }
            }
        });
    });
    if (iommu_) {
        // Whole-device accesses (interrupt bit vectors) act on behalf of
        // the hypervisor.
        iommu_->bindDevice(i, mem::kDomHypervisor);
    }
}

void
System::buildNative()
{
    vmm::Domain &native = *guests_[0];
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        nativeDrivers_.push_back(std::make_unique<os::NativeDriver>(
            ctx_, nm("natdrv" + std::to_string(i)), native, *intelNics_[i],
            os::NativeDriver::IrqRoute::kDirect, guestMac(0, i)));
        nativeDrivers_.back()->attach();
        addGuestPort(native, *nativeDrivers_.back(), 0, i);
    }
}

CdnaGuestDriver &
System::attachCdnaContext(std::uint32_t i, vmm::Domain &dom,
                          net::MacAddr mac, const std::string &name,
                          std::unique_ptr<CdnaGuestDriver> &drv)
{
    CdnaNic &nic = *cdnaNics_[i];
    // Guests past the physical slots get contexts that start paged out.
    CdnaNic::ContextId cxt = nic.allocContext(dom.id(), mac);
    mem::PageNum txp = mem_->allocOne(dom.id());
    mem::PageNum rxp = mem_->allocOne(dom.id());
    mem::PageNum stp = mem_->allocOne(dom.id());
    nic.configureContextRings(cxt, 256, mem::addrOf(txp), 256,
                              mem::addrOf(rxp));
    nic.setStatusPage(cxt, mem::addrOf(stp));
    if (drv)
        drv->rebind(cxt);
    else
        drv = std::make_unique<CdnaGuestDriver>(ctx_, name, dom, nic, cxt,
                                                *prot_, cfg_.costs, mac);
    CdnaGuestDriver *d = drv.get();
    std::vector<vmm::EventChannel *> &channels = cxtChannels_[i];
    if (channels.size() <= cxt)
        channels.resize(cxt + 1, nullptr);
    channels[cxt] = &hv_->createChannel(dom, CostModel::irqEntry,
                                        [d] { d->handleIrq(); });
    d->attach();
    // Only a per-context IOMMU consults the binding.
    if (iommu_)
        iommu_->bindContext(i, cxt, dom.id());
    // dom0's context carries the bridge's traffic, so it must accept
    // frames for every guest MAC.
    if (&dom == driverDom_)
        nic.setPromiscuousContext(cxt);
    return *d;
}

void
System::detachCdnaContext(std::uint32_t i, CdnaGuestDriver &drv)
{
    CdnaNic::ContextId cxt = drv.context();
    drv.detach();
    cxtChannels_[i][cxt] = nullptr;
    cdnaNics_[i]->revokeContext(cxt);
    if (iommu_)
        iommu_->unbindContext(i, cxt);
}

void
System::addGuestPort(vmm::Domain &guest, os::NetDevice &dev,
                     std::uint32_t g, std::uint32_t nic)
{
    std::string id = std::to_string(g) + "." + std::to_string(nic);
    guestDevs_.push_back(&dev);
    stacks_.push_back(std::make_unique<os::NetStack>(
        ctx_, nm("stack" + id), guest, dev));
    if (peers_[nic])
        stacks_.back()->setDefaultDst(peers_[nic]->mac());
    if (cfg_.transportKind == TransportKind::kTcp)
        stacks_.back()->enableTcp();
    workload::TrafficApp::Params ap;
    ap.transmit = cfg_.transmitDir;
    ap.rpcServer = cfg_.workload.hasRpc();
    apps_.push_back(std::make_unique<workload::TrafficApp>(
        ctx_, nm("app" + id), *stacks_.back(), ap));
}

void
System::buildXen()
{
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        std::string suffix = std::to_string(i);
        os::NetDevice *phys = nullptr;
        if (nic::IntelNic *inic = intelNic(i)) {
            nativeDrivers_.push_back(std::make_unique<os::NativeDriver>(
                ctx_, nm("dom0drv" + suffix), *driverDom_, *inic,
                os::NativeDriver::IrqRoute::kViaHypervisor, driverMac(i)));
            nativeDrivers_.back()->attach();
            // The bridge needs frames destined to guest MACs.
            inic->setPromiscuous(true);
            phys = nativeDrivers_.back().get();
        } else {
            wireCdnaIsr(i);
            phys = &attachCdnaContext(i, *driverDom_, driverMac(i),
                                      nm("dom0cdna" + suffix),
                                      drvDomCdnaDrivers_.emplace_back());
        }
        ddns_.push_back(std::make_unique<os::DriverDomainNet>(
            ctx_, nm("ddn" + suffix), *driverDom_, *phys));
        ddns_.back()->setRxCopyMode(cfg_.xenRxCopyMode);

        for (std::uint32_t g = 0; g < cfg_.numGuests; ++g) {
            os::XenVif &vif = ddns_.back()->createVif(*guests_[g],
                                                      guestMac(g, i));
            addGuestPort(*guests_[g], vif, g, i);
        }
    }
}

void
System::buildCdna()
{
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        wireCdnaIsr(i);
        // A per-device IOMMU holds one binding per NIC, so it cannot
        // express per-guest contexts (section 5.3): the NIC acts for
        // guest 0, and every other guest's DMA is blocked.
        if (iommu_ && iommu_->mode() == mem::Iommu::Mode::kPerDevice)
            iommu_->bindDevice(i, guests_[0]->id());
        CdnaNic &nic = *cdnaNics_[i];
        if (pagesContexts(cfg_)) {
            pagers_.push_back(std::make_unique<ContextPager>(
                ctx_, nm("pager" + std::to_string(i)), *hv_, nic));
            ContextPager *pager = pagers_.back().get();
            nic.setPageFaultHandler(
                [pager](CdnaNic::ContextId c) { pager->onTrap(c); });
            pager->setEvictedHook([this, i](CdnaNic::ContextId c) {
                // Wake the evicted guest's driver so it collects the
                // completion records that landed during the quiesce.
                if (vmm::EventChannel *ch = cxtChannel(i, c))
                    hv_->deliverVirtIrq(*ch);
            });
        }
        for (std::uint32_t g = 0; g < cfg_.numGuests; ++g) {
            vmm::Domain &guest = *guests_[g];
            CdnaGuestDriver &drv = attachCdnaContext(
                i, guest, guestMac(g, i),
                nm("cdnadrv" + std::to_string(g) + "." + std::to_string(i)),
                guestCdnaDrivers_.emplace_back());
            addGuestPort(guest, drv, g, i);
        }
    }
}

void
System::buildSwpt()
{
    // dom0 exists as the control domain only (so driver-domain fault
    // plans compose); the datapath never touches it -- descriptor
    // validation runs in the hypervisor itself.
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        swptValidators_.push_back(std::make_unique<vmm::SwptValidator>(
            ctx_, nm("swptval" + std::to_string(i)), *hv_,
            *intelNics_[i], cfg_.costs));
        vmm::SwptValidator &val = *swptValidators_.back();
        val.attach();
        if (iommu_) {
            // The shared NIC DMAs on the hypervisor's behalf: only
            // validated (hypervisor grant-mapped) pages are reachable.
            iommu_->bindDevice(i, mem::kDomHypervisor);
        }

        for (std::uint32_t g = 0; g < cfg_.numGuests; ++g) {
            vmm::Domain &guest = *guests_[g];
            auto mac = guestMac(g, i);
            swptDrivers_.push_back(std::make_unique<os::SwptDriver>(
                ctx_,
                nm("swptdrv" + std::to_string(g) + "." +
                   std::to_string(i)),
                guest, val, mac));
            os::SwptDriver *drv = swptDrivers_.back().get();
            drv->attach();
            addGuestPort(guest, *drv, g, i);
        }
    }
}

void
System::startTimers()
{
    for (const auto &dom : hv_->domains())
        domainTimerStopped_.resize(
            std::max<std::size_t>(domainTimerStopped_.size(),
                                  dom->id() + 1),
            0);
    // Each domain ticks every period from its own phase.  The ticks wait
    // in a heap ordered as the event queue orders events, and only the
    // earliest is an event, so the queue holds one tick per host however
    // many guests it runs.  Each tick reserves its sequence number where
    // a self-rescheduling event would have been scheduled, so it fires
    // exactly where that event would have.  The heap cannot be a FIFO:
    // from domain id 73 on, the phase passes the period, and a domain's
    // first tick falls after another domain's second.
    sim::EventQueue &eq = ctx_.events();
    sim::Time period = sim::kSecond / CostModel::timerHz;
    for (const auto &dom : hv_->domains()) {
        sim::Time phase = sim::microseconds(137.0) * dom->id();
        pendingTicks_.push({eq.now() + phase + period, eq.reserveSeq(),
                            dom.get()});
    }
    armTick();
}

void
System::armTick()
{
    if (pendingTicks_.empty())
        return;
    const PendingTick &next = pendingTicks_.top();
    ctx_.events().scheduleAt(next.when, next.seq, [this] { fireTick(); });
}

void
System::fireTick()
{
    sim::EventQueue &eq = ctx_.events();
    vmm::Domain *d = pendingTicks_.top().dom;
    pendingTicks_.pop();
    // A killed domain's tick fires this once more, doing nothing.
    if (!domainTimerStopped_[d->id()]) {
        d->vcpu().post(cpu::Bucket::kOs, CostModel::timerTickCost);
        sim::Time period = sim::kSecond / CostModel::timerHz;
        pendingTicks_.push({eq.now() + period, eq.reserveSeq(), d});
    }
    armTick();
}

void
System::start()
{
    if (started_)
        return;
    started_ = true;
    for (auto &app : apps_)
        app->start();
    if (cfg_.workload.empty() && cfg_.transmitDir)
        return; // open-loop transmit: the guests' apps are the sources
    // A declarative workload -- or, for receive experiments without one,
    // a line-rate flood -- starts on each local peer once the guests
    // have had a moment to post RX buffers.  Targets default to the
    // guests' MACs.  The system seed replaces a declared spec's seed, so
    // sweeps that vary only the seed stay deterministic.
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        net::TrafficPeer *p = peers_[i].get();
        if (!p)
            continue; // external fabric: the topology drives sources
        net::workload::WorkloadSpec spec = cfg_.workload;
        if (spec.empty())
            spec = net::workload::WorkloadSpec{}.withClass(
                net::workload::FlowClass::saturating());
        else
            spec.seed = cfg_.seed;
        if (spec.targets.empty())
            spec.targets = guestMacs(i);
        ctx_.events().schedule(sim::milliseconds(1.0),
                               [p, spec = std::move(spec)] {
                                   p->applyWorkload(spec);
                               });
    }
}

std::vector<net::MacAddr>
System::guestMacs(std::uint32_t nic) const
{
    std::vector<net::MacAddr> macs;
    for (std::uint32_t g = 0; g < guestsPerNic(); ++g)
        macs.push_back(guestMac(g, nic));
    return macs;
}

std::vector<std::uint64_t>
System::snapshot() const
{
    std::vector<std::uint64_t> s;
    for (const MetricRow &m : reportMetrics()) {
        if (auto *count = std::get_if<MetricRow::Counter>(&m.collect))
            s.push_back((*count)(*this));
        else if (auto *per = std::get_if<MetricRow::GuestCounter>(&m.collect))
            for (std::uint32_t g = 0; g < guests_.size(); ++g)
                s.push_back((*per)(*this, g));
    }
    return s;
}

Report
System::run(sim::Time warmup, sim::Time measure)
{
    start();
    auto &eq = ctx_.events();
    eq.runUntil(eq.now() + warmup);
    beginMeasurement();
    eq.runUntil(eq.now() + measure);
    return endMeasurement(measure);
}

void
System::beginMeasurement()
{
    cpu_->resetAccounting();
    measureBegin_ = snapshot();
}

Report
System::endMeasurement(sim::Time window)
{
    cpu_->syncIdle();
    return buildReport(measureBegin_, snapshot(), window);
}

Report
System::buildReport(const std::vector<std::uint64_t> &a,
                    const std::vector<std::uint64_t> &b,
                    sim::Time window) const
{
    using enum MetricKind;
    Report r;
    r.label = cfg_.effectiveLabel();
    r.window = window;
    double secs = sim::toSeconds(window);
    auto mbps = [secs](std::uint64_t bytes) {
        return static_cast<double>(bytes) * 8.0 / secs / 1.0e6;
    };
    std::size_t at = 0; // next counter slot in the snapshots
    auto delta = [&] {
        std::uint64_t d = b[at] - a[at];
        ++at;
        return d;
    };
    for (const MetricRow &m : reportMetrics()) {
        auto *dbl = std::get_if<double Report::*>(&m.field);
        auto *u64 = std::get_if<std::uint64_t Report::*>(&m.field);
        auto *arr = std::get_if<std::vector<double> Report::*>(&m.field);
        switch (m.kind) {
          case kDelta:
            r.**u64 = delta();
            break;
          case kEnd:
            r.**u64 = b[at++];
            break;
          case kRate:
            r.**dbl = static_cast<double>(delta()) / secs;
            break;
          case kMbps:
            r.**dbl = mbps(delta());
            break;
          case kScaled:
            r.**dbl = static_cast<double>(delta()) / m.param;
            break;
          case kPct:
            r.**dbl = std::get<MetricRow::Share>(m.collect)(*this, window);
            break;
          case kMean:
          case kQuantile: {
            sim::LatencyRecorder l =
                std::get<MetricRow::Latency>(m.collect)(*this);
            if (l.count() == 0)
                break;
            r.**dbl = m.kind == kMean
                          ? l.mean()
                          : static_cast<double>(l.quantile(m.param));
            break;
          }
          case kPerGuestMbps:
            for (std::size_t g = 0; g < guests_.size(); ++g)
                (r.**arr).push_back(mbps(delta()));
            break;
          case kPerGuest:
            for (std::uint32_t g = 0; g < guests_.size(); ++g)
                (r.**arr).push_back(
                    std::get<MetricRow::GuestValue>(m.collect)(*this, g));
            break;
          case kDerived:
            break;
        }
    }
    return r;
}

CdnaNic *
System::cdnaNic(std::uint32_t i)
{
    return i < cdnaNics_.size() ? cdnaNics_[i].get() : nullptr;
}

nic::IntelNic *
System::intelNic(std::uint32_t i)
{
    return i < intelNics_.size() ? intelNics_[i].get() : nullptr;
}

vmm::Domain *
System::guestDomain(std::uint32_t g)
{
    return g < guests_.size() ? guests_[g] : nullptr;
}

void
System::scheduleFaultEvents()
{
    for (const auto &fs : cfg_.faults.firmwareStalls) {
        if (fs.nic >= cdnaNics_.size())
            continue; // no CDNA NIC with that index
        CdnaNic *nic = cdnaNics_[fs.nic].get();
        ctx_.events().schedule(
            sim::milliseconds(fs.atMs), [this, nic, fs] {
                faults_->note(sim::FaultEvent::kFirmwareStall);
                nic->stallFirmware(sim::milliseconds(fs.durMs),
                                   fs.watchdogReset);
            });
    }
    for (const auto &gk : cfg_.faults.guestKills)
        ctx_.events().schedule(sim::milliseconds(gk.atMs),
                               [this, g = gk.guest] { killGuest(g); });
    for (const auto &dk : cfg_.faults.driverDomainKills)
        ctx_.events().schedule(sim::milliseconds(dk.atMs),
                               [this] { killDriverDomain(); });
    for (const auto &fr : cfg_.faults.firmwareReboots)
        ctx_.events().schedule(sim::milliseconds(fr.atMs),
                               [this, nic = fr.nic]
                               { rebootNicFirmware(nic); });
}

void
System::setupAvailability()
{
    // The tracker (and the Xen frontend reconnection watchdogs) exist
    // only when the plan schedules an outage-class fault, so every
    // other configuration keeps its exact event sequence.
    if (cfg_.faults.driverDomainKills.empty() &&
        cfg_.faults.firmwareReboots.empty())
        return;
    auto guests = static_cast<std::uint32_t>(guests_.size());
    avail_ = std::make_unique<AvailabilityTracker>(ctx_, nm("availability"),
                                                   guests);

    // Per-guest progress: any stack of guest g (on any NIC) moving
    // data end-to-end counts, which is what makes a CDNA guest with a
    // surviving path score zero downtime.
    for (std::size_t idx = 0; idx < stacks_.size(); ++idx) {
        auto g = static_cast<std::uint32_t>(idx % guestsPerNic());
        stacks_[idx]->setProgressHook(
            [this, g] { avail_->noteProgress(g); });
    }

    if (cfg_.faults.driverDomainKills.empty())
        return;
    for (auto &ddn : ddns_) {
        const auto &vifs = ddn->vifs();
        for (std::size_t g = 0; g < vifs.size(); ++g) {
            os::XenVif *vif = vifs[g].get();
            vif->enableReconnect();
            vif->setReconnectedHook(
                [this, g = static_cast<std::uint32_t>(g)]
                { avail_->noteRecovery(g); });
        }
    }
}

bool
System::killDriverDomain()
{
    if (!driverDom_ || driverDomainDown_)
        return false;
    driverDomainDown_ = true;
    if (faults_)
        faults_->note(sim::FaultEvent::kDriverDomainKill);
    if (avail_)
        for (std::uint32_t g = 0; g < avail_->guests(); ++g)
            avail_->noteOutageStart(g);

    // The netbacks die with the domain; frontends detect it via their
    // watchdogs and reconnect after the restart below.
    for (auto &ddn : ddns_)
        ddn->crash();
    // dom0's qdisc (packets bridged but not yet posted) lived in the
    // dead domain's memory, and the hypervisor quiesces the Intel TX
    // engine -- a crashed domain's device must stop referencing pages
    // it had grant-mapped.  RX keeps landing in device-owned buffers;
    // the dead bridge discards it.
    for (auto &nd : nativeDrivers_)
        nd->dropStaged();
    for (auto &nd : nativeDrivers_)
        nd->nic().quiesceTx();
    // dom0's physical CDNA driver (the Xen/RiceNIC rows) dies too: its
    // context is revoked and a fresh one is negotiated at restart.  The
    // Intel native driver itself is modeled as surviving (its ring
    // state lives in the NIC, not in dom0 memory), so no ring
    // renegotiation happens at restart.
    for (std::size_t i = 0; i < drvDomCdnaDrivers_.size(); ++i)
        detachCdnaContext(static_cast<std::uint32_t>(i),
                          *drvDomCdnaDrivers_[i]);
    // A swpt validator is the dom0-equivalent: descriptor auditing
    // stops, so doorbells latch unprocessed, completions sit in the
    // NIC, and the shared RX ring runs dry.  Everything drains at
    // restart.
    for (auto &v : swptValidators_)
        v->stall();
    // CDNA guests drive their own contexts, so the kill has no datapath
    // effect on them at all -- exactly the paper's failure-domain
    // argument.

    // Revoke every grant mapping the dead domain held.  Pages with DMA
    // possibly in flight sit in quarantine until the drain delay
    // passes; only then do they return to the allocator.
    hv_->grants().revokeMappingsOf(driverDom_->id());
    ctx_.events().schedule(CostModel::dmaQuarantineDrain,
                           [this] { hv_->grants().drainQuarantine(); });

    ctx_.events().schedule(CostModel::driverDomainReboot,
                           [this] { restartDriverDomain(); });
    return true;
}

void
System::restartDriverDomain()
{
    driverDomainDown_ = false;
    // Fresh contexts for the rebooted domain's CDNA drivers, which
    // re-attach from scratch.
    for (std::size_t i = 0; i < drvDomCdnaDrivers_.size(); ++i) {
        std::unique_ptr<CdnaGuestDriver> &drv = drvDomCdnaDrivers_[i];
        attachCdnaContext(static_cast<std::uint32_t>(i), *driverDom_,
                          drv->mac(), drv->name(), drv);
    }
    for (auto &ddn : ddns_)
        ddn->restart();
    for (auto &v : swptValidators_)
        v->restart();
    if (avail_ && ddns_.empty()) {
        // Without netbacks there is no reconnection protocol to wait
        // for: the control plane is simply back.  (Xen guests note
        // recovery at vif reconnect.)
        for (std::uint32_t g = 0; g < avail_->guests(); ++g)
            avail_->noteRecovery(g);
    }
    if (faults_)
        faults_->note(sim::FaultEvent::kDriverDomainRestart);
}

bool
System::rebootNicFirmware(std::uint32_t nic)
{
    vmm::SwptValidator *val = swptValidator(nic);
    if (!val && nic >= cdnaNics_.size())
        return false; // no firmware NIC with that index
    if (faults_)
        faults_->note(sim::FaultEvent::kFirmwareReboot);
    if (val) {
        // Full device reset of the shared IntelNic: in-flight TX is
        // dropped (attributed as zero-byte completions so guest TX
        // windows recover) and the validator re-rings its shadow queue
        // once the firmware is back.
        if (avail_)
            for (std::uint32_t g = 0; g < avail_->guests(); ++g)
                avail_->noteOutageStart(g);
        val->resetNic();
        ctx_.events().schedule(CostModel::firmwareReboot, [this, val] {
            val->reconcileAfterReset();
            if (avail_)
                for (std::uint32_t g = 0; g < avail_->guests(); ++g)
                    avail_->noteRecovery(g);
        });
        return true;
    }
    if (avail_)
        for (std::uint32_t g = 0; g < avail_->guests(); ++g)
            avail_->noteOutageStart(g);
    cdnaNics_[nic]->rebootFirmware(CostModel::firmwareReboot,
                                   CostModel::fwRebootReconcilePerContext);
    if (avail_) {
        // Recovery point: the firmware is back up (context
        // reconciliation adds microseconds on top).
        ctx_.events().schedule(CostModel::firmwareReboot, [this] {
            for (std::uint32_t g = 0; g < avail_->guests(); ++g)
                avail_->noteRecovery(g);
        });
    }
    return true;
}

bool
System::killGuest(std::uint32_t guest)
{
    // Cut the guest off every NIC: revoke its CDNA contexts and detach
    // its swpt validator ports.  Xen and native guests own neither.
    bool any = false;
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        any = revokeGuestContext(guest, i) || any;
        os::SwptDriver *drv = swptDriver(guest, i);
        if (drv && !drv->detached()) {
            drv->detach();
            any = true;
        }
    }
    if (!any)
        return false;
    // Silence the dead guest's software: stop its workload, cancel
    // every pending transport timer (an armed TCP RTO or delayed ACK
    // would otherwise fire into the dead domain), and stop its timer
    // tick from rescheduling.
    for (std::uint32_t i = 0; i < cfg_.numNics; ++i) {
        app(guest, i).stop();
        stack(guest, i).shutdown();
    }
    auto id = static_cast<std::size_t>(guests_[guest]->id());
    if (id < domainTimerStopped_.size())
        domainTimerStopped_[id] = 1;
    if (faults_)
        faults_->note(sim::FaultEvent::kGuestKill);
    return true;
}

bool
System::revokeGuestContext(std::uint32_t guest, std::uint32_t nic)
{
    CdnaGuestDriver *drv = cdnaDriver(guest, nic);
    if (!drv || drv->detached() || nic >= cdnaNics_.size())
        return false;
    detachCdnaContext(nic, *drv);
    return true;
}

vmm::SwptValidator *
System::swptValidator(std::uint32_t i)
{
    return i < swptValidators_.size() ? swptValidators_[i].get()
                                      : nullptr;
}

os::SwptDriver *
System::swptDriver(std::uint32_t guest, std::uint32_t nic)
{
    std::size_t idx = portIndex(guest, nic);
    return idx < swptDrivers_.size() ? swptDrivers_[idx].get() : nullptr;
}

CdnaGuestDriver *
System::cdnaDriver(std::uint32_t guest, std::uint32_t nic)
{
    std::size_t idx = portIndex(guest, nic);
    return idx < guestCdnaDrivers_.size() ? guestCdnaDrivers_[idx].get()
                                          : nullptr;
}

os::NetStack &
System::stack(std::uint32_t guest, std::uint32_t nic)
{
    std::size_t idx = portIndex(guest, nic);
    SIM_ASSERT(idx < stacks_.size(), "no such guest port");
    return *stacks_[idx];
}

workload::TrafficApp &
System::app(std::uint32_t guest, std::uint32_t nic)
{
    std::size_t idx = portIndex(guest, nic);
    SIM_ASSERT(idx < apps_.size(), "no such guest port");
    return *apps_[idx];
}

SystemConfig
SystemConfig::native(std::uint32_t nics)
{
    return archConfig(Arch::kNative, 1).withNics(nics);
}

SystemConfig
SystemConfig::xenIntel(std::uint32_t guests)
{
    return archConfig(Arch::kXenIntel, guests);
}

SystemConfig
SystemConfig::xenRice(std::uint32_t guests)
{
    return archConfig(Arch::kXenRice, guests);
}

SystemConfig
SystemConfig::cdna(std::uint32_t guests)
{
    return archConfig(Arch::kCdna, guests);
}

SystemConfig
SystemConfig::swPassthrough(std::uint32_t guests)
{
    return archConfig(Arch::kSwpt, guests);
}

std::string
SystemConfig::effectiveLabel() const
{
    std::string base;
    switch (arch) {
      case Arch::kNative:
        base = "native";
        break;
      case Arch::kXenIntel:
        base = "xen-intel";
        break;
      case Arch::kXenRice:
        base = "xen-ricenic";
        break;
      case Arch::kCdna:
        base = "cdna";
        break;
      case Arch::kSwpt:
        base = "swpt";
        break;
    }
    base += transmitDir ? "/tx" : "/rx";
    if (transportKind == TransportKind::kTcp)
        base += "/tcp";
    if (arch == Arch::kCdna && !dmaProtection)
        base += "/noprot";
    if (pagesContexts(*this))
        base += "/oversub";
    return base;
}

} // namespace cdna::core
