/**
 * @file
 * Whole-system assembly: the public entry point of the library.
 *
 * A System instantiates the paper's testbed in one of five I/O
 * architectures (core::Arch):
 *
 *  - kNative:   one OS owning the NICs directly (Table 1 baseline);
 *  - kXenIntel, kXenRice: driver domain + software multiplexing through
 *               the bridge and paravirtual split drivers (sections
 *               2.1-2.2), over either the Intel NIC (TSO) or a CDNA NIC
 *               with a single context assigned to the driver domain
 *               (the Xen/RiceNIC rows of Tables 2-3);
 *  - kCdna:     each guest owns a private hardware context on every NIC
 *               (section 3), with DMA protection on or off (Table 4)
 *               and optional IOMMU modes (section 5.3);
 *  - kSwpt:     software-only passthrough (Kedia & Bansal's competing
 *               design point): guests program real Intel-style
 *               descriptor rings, every doorbell traps into a hypervisor
 *               validator (vmm/swpt_validator.hh) that audits and
 *               shadow-copies descriptors onto ONE shared
 *               single-context IntelNic, with software RX demux by
 *               destination MAC.
 *
 * The architecture is read once, while the System is constructed: it
 * picks the NIC model and wires the components between the guests and
 * the NICs.  Everything after that -- the fault hooks, availability
 * accounting, the report -- acts on whichever components exist.
 *
 * Usage:
 *   core::System sys(core::SystemConfig::cdna(4));
 *   core::Report r = sys.run(sim::milliseconds(50), sim::seconds(1));
 */

#ifndef CDNA_CORE_SYSTEM_HH
#define CDNA_CORE_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "core/availability.hh"
#include "core/cdna_driver.hh"
#include "core/cdna_nic.hh"
#include "core/context_pager.hh"
#include "core/cost_model.hh"
#include "core/dma_protection.hh"
#include "core/fault_plan.hh"
#include "core/report.hh"
#include "mem/grant_table.hh"
#include "mem/iommu.hh"
#include "net/eth_link.hh"
#include "net/traffic_peer.hh"
#include "nic/intel_nic.hh"
#include "os/native_driver.hh"
#include "os/net_stack.hh"
#include "os/swpt_driver.hh"
#include "os/xen_net.hh"
#include "vmm/hypervisor.hh"
#include "vmm/swpt_validator.hh"
#include "workload/traffic_app.hh"

namespace cdna::sim {
class MetricsRegistry;
} // namespace cdna::sim

namespace cdna::core {

/**
 * I/O virtualization architecture under test: who multiplexes the NIC,
 * delivers its interrupts and protects its DMA.  Native, Xen/Intel and
 * swpt drive Intel NICs; Xen/RiceNIC and CDNA drive CDNA NICs.
 */
enum class Arch { kNative, kXenIntel, kXenRice, kCdna, kSwpt };

/** Transport model aliases, so configs read as `.transport(kTcp)`. */
using net::transport::TransportKind;
inline constexpr TransportKind kOpenLoop = TransportKind::kOpenLoop;
inline constexpr TransportKind kTcp = TransportKind::kTcp;

/**
 * System configuration.
 *
 * Build one fluently from a named constructor matching the paper's
 * rows, e.g.:
 *
 *   auto cfg = SystemConfig::cdna(4).transmit(false)
 *                  .withProtection(false)
 *                  .withFaults(FaultPlan{}.dropping(0.01));
 *
 * All fields remain public for ablations; the fluent setters only make
 * the common paths read well.
 */
struct SystemConfig
{
    /** Set by the named constructors below. */
    Arch arch = Arch::kCdna;
    std::uint32_t numGuests = 1;
    std::uint32_t numNics = 2;
    /** Hypervisor DMA protection + NIC seqno checks (CDNA). */
    bool dmaProtection = true;
    /** Xen receive path: copy-mode netback instead of page flipping. */
    bool xenRxCopyMode = false;
    mem::Iommu::Mode iommuMode = mem::Iommu::Mode::kNone;
    /** Workload direction: transmit from guests, or receive into them. */
    bool transmitDir = true;
    std::uint64_t seed = 1;
    CostModel costs{};
    /** Hardware contexts per CDNA NIC; more CDNA guests than this page
     *  their contexts over them (label "/oversub"). */
    std::uint32_t cdnaContexts = nic::kMaxContexts;
    /** Fault plan; an empty plan injects nothing (see fault_plan.hh). */
    FaultPlan faults{};
    /**
     * Transport model: the default open loop keeps every pre-existing
     * configuration bit-identical at the same seed; kTcp runs closed-
     * loop Reno endpoints on the guests and the peers (see
     * net/transport/tcp.hh).
     */
    TransportKind transportKind = TransportKind::kOpenLoop;
    /** The TCP stack's constants (used only when transportKind == kTcp). */
    net::transport::TcpParams tcpParams{};
    /**
     * Declarative peer workload (see net/workload/workload_spec.hh).
     * Empty (the default) keeps the classic behavior: receive runs
     * flood the guests at line rate, transmit runs generate nothing at
     * the peer.  Non-empty specs are applied to every local peer at
     * start(); targets default to the guests' MACs and the spec's seed
     * is replaced by the system seed, so sweeps stay deterministic.
     */
    net::workload::WorkloadSpec workload{};
    /**
     * Free-form scenario parameters (fanout, switch buffer bytes, ...)
     * so sweep axes can carry topology knobs that System itself never
     * reads; see sim/sweep_presets.cc's incast runner.
     */
    std::map<std::string, double> scenario;

    // --- named constructors (the paper's configurations) -----------------
    /** Native Linux owning @p nics NICs directly (Table 1 baseline). */
    static SystemConfig native(std::uint32_t nics = 2);
    /** Xen split drivers over the Intel NIC (Tables 2-3 "Xen"). */
    static SystemConfig xenIntel(std::uint32_t guests = 1);
    /** Xen split drivers over the RiceNIC ("Xen/RiceNIC" rows). */
    static SystemConfig xenRice(std::uint32_t guests = 1);
    /** CDNA: per-guest hardware contexts (section 3). */
    static SystemConfig cdna(std::uint32_t guests = 1);
    /** Software-only passthrough: guest-programmed real rings, doorbell
     *  validation in the hypervisor, one shared IntelNic. */
    static SystemConfig swPassthrough(std::uint32_t guests = 1);

    // --- fluent setters ---------------------------------------------------
    /** Workload direction: guests transmit (default) or receive. */
    SystemConfig &
    transmit(bool tx = true)
    {
        transmitDir = tx;
        return *this;
    }

    SystemConfig &
    receive()
    {
        transmitDir = false;
        return *this;
    }

    SystemConfig &
    withNics(std::uint32_t n)
    {
        numNics = n;
        return *this;
    }

    SystemConfig &
    withProtection(bool on)
    {
        dmaProtection = on;
        return *this;
    }

    SystemConfig &
    withIommu(mem::Iommu::Mode m)
    {
        iommuMode = m;
        return *this;
    }

    SystemConfig &
    withRxCopy(bool on)
    {
        xenRxCopyMode = on;
        return *this;
    }

    SystemConfig &
    withSeed(std::uint64_t s)
    {
        seed = s;
        return *this;
    }

    SystemConfig &
    withFaults(FaultPlan plan)
    {
        faults = std::move(plan);
        return *this;
    }

    /** Attach a free-form scenario parameter (topology knobs). */
    SystemConfig &
    withScenario(const std::string &key, double value)
    {
        scenario[key] = value;
        return *this;
    }

    /** Read a scenario parameter, defaulting when unset. */
    double
    scenarioOr(const std::string &key, double def) const
    {
        auto it = scenario.find(key);
        return it == scenario.end() ? def : it->second;
    }

    /** Select the transport model, e.g. `.transport(kTcp)`. */
    SystemConfig &
    transport(TransportKind k)
    {
        transportKind = k;
        return *this;
    }

    /** Attach a declarative peer workload (replaces the default flood). */
    SystemConfig &
    withWorkload(net::workload::WorkloadSpec spec)
    {
        workload = std::move(spec);
        return *this;
    }

    /**
     * The report label, derived from the configuration ("cdna/tx",
     * "xen-intel/rx", "cdna/tx/noprot", "cdna/tx/oversub", ...) so it
     * always matches it.
     */
    std::string effectiveLabel() const;
};

class System
{
  public:
    explicit System(SystemConfig cfg);

    /**
     * Construct as host @p host of a shared context (multi-host
     * topologies): host h > 0 takes a disjoint MAC block and "h<h>."
     * component names.  NIC i binds a port on @p nic_fabrics[i]; a
     * nullptr entry (or a vector shorter than numNics) gives that NIC
     * the classic private EthLink + TrafficPeer pair.  The caller
     * drives the event queue and brackets measurement with
     * beginMeasurement() / endMeasurement(); see sim/topology.hh for
     * the builder that assembles switches, hosts, and peers.
     */
    System(SystemConfig cfg, sim::SimContext &shared, std::uint32_t host,
           std::vector<net::Fabric *> nic_fabrics);
    ~System();

    System(const System &) = delete;
    System &operator=(const System &) = delete;

    /** Start workloads (idempotent; run() calls it). */
    void start();

    /**
     * Simulate @p warmup, reset accounting, simulate @p measure, and
     * report the measurement window.
     */
    Report run(sim::Time warmup, sim::Time measure);

    /**
     * Externally driven measurement (shared-context topologies): call
     * once the warmup has been simulated, run the shared queue for the
     * window, then collect endMeasurement().  run() is exactly
     * start + warmup + beginMeasurement + measure + endMeasurement.
     */
    void beginMeasurement();
    Report endMeasurement(sim::Time window);

    /**
     * Register this host's gauges on @p metrics: each domain's, the
     * hypervisor's and the idle CPU share; each CDNA NIC's firmware
     * utilization and interrupt-ring occupancy; pinned pages; pending
     * events; each TCP endpoint's cwnd; each stack's TX backlog depth.
     * The gauges read this System, which must outlive @p metrics.  An
     * observed sim::Topology::run is the one caller.
     */
    void registerGauges(sim::MetricsRegistry &metrics);

    // --- component access (tests, examples, ablations) -------------------
    sim::SimContext &ctx() { return ctx_; }
    cpu::SimCpu &cpu() { return *cpu_; }
    vmm::Hypervisor &hv() { return *hv_; }
    mem::PhysMemory &mem() { return *mem_; }
    mem::Iommu *iommu() { return iommu_.get(); }
    DmaProtection *protection() { return prot_.get(); }
    const SystemConfig &config() const { return cfg_; }

    std::uint32_t nicCount() const
    {
        return static_cast<std::uint32_t>(
            std::max(cdnaNics_.size(), intelNics_.size()));
    }
    CdnaNic *cdnaNic(std::uint32_t i);
    nic::IntelNic *intelNic(std::uint32_t i);
    /** Local traffic peer of NIC @p i (only for locally-linked NICs). */
    net::TrafficPeer &peer(std::uint32_t i) { return *peers_[i]; }
    /** The fabric port NIC @p i is bound to. */
    net::Port &nicPort(std::uint32_t i);
    /** True when NIC @p i is bound to a caller-provided fabric. */
    bool nicExternal(std::uint32_t i) const
    {
        return i < extFabrics_.size() && extFabrics_[i] != nullptr;
    }
    /** The caller-provided fabric of an external NIC. */
    net::Fabric &nicFabric(std::uint32_t i) { return *extFabrics_[i]; }
    /** MAC address of (guest, nic), offset into this host's MAC block. */
    net::MacAddr guestMac(std::uint32_t guest, std::uint32_t nic) const;
    /** MAC address the driver domain sources from on NIC @p nic. */
    net::MacAddr driverMac(std::uint32_t nic) const;

    vmm::Domain *driverDomain() { return driverDom_; }
    vmm::Domain *guestDomain(std::uint32_t g);
    CdnaGuestDriver *cdnaDriver(std::uint32_t guest, std::uint32_t nic);

    /** Software-passthrough validator of NIC @p i (swpt only). */
    vmm::SwptValidator *swptValidator(std::uint32_t i);
    /** Software-passthrough guest driver (swpt only). */
    os::SwptDriver *swptDriver(std::uint32_t guest, std::uint32_t nic);

    /**
     * Revoke a guest's hardware context on one NIC at runtime (section
     * 3.1): the driver is detached (its DMA pins dropped, making the
     * guest's pages reclaimable), pending NIC operations for the
     * context are shut down, and the context slot becomes reusable.
     * @retval true the guest had a CDNA context there and it was revoked
     */
    bool revokeGuestContext(std::uint32_t guest, std::uint32_t nic);

    /**
     * Simulate a guest crash (FaultPlan::killingGuest): cut the guest
     * off every NIC, then silence the dead guest's software -- its apps
     * stop, its stacks cancel every pending transport timer (RTO,
     * delayed ACK), and its timer tick stops -- so no scheduled event
     * can fire into the dead domain.  A guest's CDNA contexts are
     * revoked; its swpt validator ports are detached instead: queued
     * descriptors are flushed and RX demux to the dead guest stops,
     * while pages referenced by descriptors already on the NIC stay
     * pinned until the device consumes them.  A Xen or native guest
     * owns neither, so the kill is a no-op there and for unknown guests.
     * @retval true at least one context/port was revoked
     */
    bool killGuest(std::uint32_t guest);

    /**
     * Crash the driver domain (FaultPlan::killingDriverDomain).  Its
     * netbacks die -- every Xen guest loses connectivity until the
     * domain reboots (costs.driverDomainReboot) and the frontends
     * reconnect -- along with dom0's physical driver, and grant
     * mappings held by the dead domain are revoked, with in-flight DMA
     * targets quarantined until the drain delay passes.  CDNA guests
     * never touch dom0, so for them the kill is control-plane only.
     * swpt validators are the dom0-equivalent: they stall (doorbells
     * latch unprocessed, the shared NIC's RX ring runs dry) until the
     * reboot delay passes and they restart.
     * @retval true the fault applied (false without a driver domain,
     *         i.e. native, or when it is already down)
     */
    bool killDriverDomain();

    /**
     * Reboot NIC @p nic's firmware (FaultPlan::rebootingFirmware).  A
     * CDNA NIC loses all volatile firmware state and reconciles
     * per-context descriptor positions against hypervisor-validated
     * ring state; guest watchdogs re-ring lost doorbells without any
     * other domain's involvement.  The Intel NIC behind a swpt
     * validator gets a full device reset instead: in-flight TX is
     * dropped and the validator re-rings its shadow queue once the
     * reboot delay passes.
     * @retval true NIC @p nic is a CDNA NIC or a swpt validator's NIC
     */
    bool rebootNicFirmware(std::uint32_t nic);

    /** Availability tracker, or null without an outage fault plan. */
    AvailabilityTracker *availability() { return avail_.get(); }

    /** Fault injector, or null when the fault plan is empty. */
    sim::FaultInjector *faultInjector() { return faults_.get(); }

    os::NetStack &stack(std::uint32_t guest, std::uint32_t nic);
    workload::TrafficApp &app(std::uint32_t guest, std::uint32_t nic);

  private:
    // The report's collectors read this System's own components.
    friend const std::vector<MetricRow> &reportMetrics();

    System(SystemConfig cfg, sim::SimContext *shared, std::uint32_t host,
           std::vector<net::Fabric *> nic_fabrics);

    void buildCommon();
    void scheduleFaultEvents();
    void setupAvailability();
    void restartDriverDomain();
    // One per architecture: the components between guests and NICs.
    void buildNative();
    void buildXen();
    void buildCdna();
    void buildSwpt();
    /** Stack + app over guest @p g's device on NIC @p nic. */
    void addGuestPort(vmm::Domain &guest, os::NetDevice &dev,
                      std::uint32_t g, std::uint32_t nic);
    /**
     * Give @p dom a fresh context on CDNA NIC @p nic (256-entry rings,
     * a status page, an event channel, an IOMMU binding) and attach
     * @p drv to it, first creating the driver as @p name if @p drv is
     * empty.
     */
    CdnaGuestDriver &attachCdnaContext(std::uint32_t nic, vmm::Domain &dom,
                                       net::MacAddr mac,
                                       const std::string &name,
                                       std::unique_ptr<CdnaGuestDriver> &drv);
    /** Detach @p drv and revoke its context on CDNA NIC @p nic. */
    void detachCdnaContext(std::uint32_t nic, CdnaGuestDriver &drv);
    void wireCdnaIsr(std::uint32_t nic_index);
    /** The virtual-interrupt channel of context @p cxt on CDNA NIC
     *  @p nic, or null when no guest driver is attached to it. */
    vmm::EventChannel *cxtChannel(std::uint32_t nic,
                                  CdnaNic::ContextId cxt) const
    {
        const std::vector<vmm::EventChannel *> &channels = cxtChannels_[nic];
        return cxt < channels.size() ? channels[cxt] : nullptr;
    }
    void startTimers();
    /** Arm the earliest pending timer tick as an event. */
    void armTick();
    /** Run the earliest pending timer tick and arm the next. */
    void fireTick();
    /** @p base prefixed with this host's name prefix. */
    std::string nm(const std::string &base) const
    {
        return prefix_ + base;
    }
    /** Guests with their own stack on each NIC (native: the one OS). */
    std::uint32_t
    guestsPerNic() const
    {
        return static_cast<std::uint32_t>(guests_.size());
    }
    /** Index of (guest, nic) in the NIC-major per-port vectors, or
     *  past their end when the guest has no port on that NIC. */
    std::size_t
    portIndex(std::uint32_t guest, std::uint32_t nic) const
    {
        if (guest >= guestsPerNic() || nic >= cfg_.numNics)
            return SIZE_MAX;
        return static_cast<std::size_t>(nic) * guestsPerNic() + guest;
    }
    /** MACs of the guests behind NIC @p nic, in guest order. */
    std::vector<net::MacAddr> guestMacs(std::uint32_t nic) const;
    /** Every counter row of reportMetrics(), in table order. */
    std::vector<std::uint64_t> snapshot() const;
    Report buildReport(const std::vector<std::uint64_t> &a,
                       const std::vector<std::uint64_t> &b,
                       sim::Time window) const;

    SystemConfig cfg_;
    std::uint32_t hostId_; //!< index in its topology (0 standalone)
    std::string prefix_;   //!< of every component name; "" on host 0
    /** Owned in single-host mode; null when sharing a topology context. */
    std::unique_ptr<sim::SimContext> ownedCtx_;
    sim::SimContext &ctx_;
    /** Caller-provided fabrics, indexed by NIC (nullptr = local link). */
    std::vector<net::Fabric *> extFabrics_;
    std::unique_ptr<sim::FaultInjector> faults_;
    std::unique_ptr<mem::PhysMemory> mem_;
    std::unique_ptr<cpu::SimCpu> cpu_;
    std::unique_ptr<vmm::Hypervisor> hv_;
    std::unique_ptr<mem::Iommu> iommu_;
    std::unique_ptr<DmaProtection> prot_;

    std::vector<std::unique_ptr<mem::PciBus>> buses_;
    // Local-link plumbing; entry i is null when NIC i rides an external
    // fabric (the topology builder owns the switch and remote peers).
    std::vector<std::unique_ptr<net::EthLink>> links_;
    std::vector<std::unique_ptr<net::TrafficPeer>> peers_;
    std::vector<net::Port *> nicPorts_;
    std::vector<std::unique_ptr<nic::IntelNic>> intelNics_;
    std::vector<std::unique_ptr<CdnaNic>> cdnaNics_;

    vmm::Domain *driverDom_ = nullptr; // null under native
    std::vector<vmm::Domain *> guests_;

    // Architecture-specific components: an architecture without one
    // leaves its vector empty, and the fault hooks act on whichever
    // exist.

    // The native OS's or dom0's Intel drivers; dom0's CDNA drivers
    // (Xen/RiceNIC) and netbacks (Xen).
    std::vector<std::unique_ptr<os::NativeDriver>> nativeDrivers_;
    std::vector<std::unique_ptr<CdnaGuestDriver>> drvDomCdnaDrivers_;
    std::vector<std::unique_ptr<os::DriverDomainNet>> ddns_;

    // CDNA NICs: per-NIC channel table indexed by context id, grown as
    // contexts attach
    std::vector<std::vector<vmm::EventChannel *>> cxtChannels_;
    // Per-NIC context pagers (only when guests outnumber contexts).
    std::vector<std::unique_ptr<ContextPager>> pagers_;
    std::vector<std::unique_ptr<CdnaGuestDriver>> guestCdnaDrivers_;

    // swpt: one validator per NIC, one driver per (guest, nic) in the
    // same NIC-major order as guestDevs_.
    std::vector<std::unique_ptr<vmm::SwptValidator>> swptValidators_;
    std::vector<std::unique_ptr<os::SwptDriver>> swptDrivers_;

    // Per (guest, nic) plumbing; NIC-major: index = nic * guests + guest.
    std::vector<os::NetDevice *> guestDevs_;
    std::vector<std::unique_ptr<os::NetStack>> stacks_;
    std::vector<std::unique_ptr<workload::TrafficApp>> apps_;

    /** A domain's next timer tick, at its reserved FIFO position. */
    struct PendingTick
    {
        sim::Time when;
        std::uint64_t seq;
        vmm::Domain *dom;

        /** Due later: the heap below keeps the earliest on top. */
        bool
        operator>(const PendingTick &o) const
        {
            return when != o.when ? when > o.when : seq > o.seq;
        }
    };
    // Every domain's next timer tick in (when, seq) order; only the
    // earliest is an armed event (see startTimers()).
    std::priority_queue<PendingTick, std::vector<PendingTick>,
                        std::greater<>>
        pendingTicks_;
    // Indexed by domain id; a stopped (killed) domain's tick no longer
    // posts CPU work or reschedules itself.
    std::vector<char> domainTimerStopped_;

    std::unique_ptr<AvailabilityTracker> avail_;
    bool driverDomainDown_ = false;

    bool started_ = false;
    std::vector<std::uint64_t> measureBegin_;
};

} // namespace cdna::core

#endif // CDNA_CORE_SYSTEM_HH
