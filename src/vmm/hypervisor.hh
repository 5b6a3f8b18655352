/**
 * @file
 * The hypervisor: domain lifecycle, hypercalls, interrupt dispatch,
 * grant operations (paper section 2.1).
 *
 * Xen's three key functions (allocate/isolate resources, field all
 * physical interrupts, mediate I/O) are implemented here.  All
 * hypervisor CPU time flows through SimCpu::runHypervisor so the
 * "Hyp" column of the paper's execution profiles falls out of the
 * accounting directly.
 */

#ifndef CDNA_VMM_HYPERVISOR_HH
#define CDNA_VMM_HYPERVISOR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cpu/sim_cpu.hh"
#include "mem/grant_table.hh"
#include "mem/phys_memory.hh"
#include "sim/sim_object.hh"
#include "vmm/domain.hh"
#include "vmm/event_channel.hh"

namespace cdna::vmm {

/**
 * Hypervisor CPU-cost parameters (calibrated; see core/cost_model).
 * Only the hypercall overhead is settable (the protection preset
 * zeroes it); the rest are constants.
 */
struct HvParams
{
    /** Entry/exit overhead of any hypercall. */
    sim::Time hypercallOverhead = sim::nanoseconds(600);
    /** Hypervisor ISR cost of fielding one physical interrupt. */
    static constexpr sim::Time physIrqDispatch = sim::nanoseconds(1100);
    /** Cost of scheduling one virtual interrupt to a domain. */
    static constexpr sim::Time virtIrqDeliver = sim::nanoseconds(400);
    /** Grant-table costs, charged per page. */
    static constexpr sim::Time grantMapPerPage = sim::nanoseconds(300);
    static constexpr sim::Time grantUnmapPerPage = sim::nanoseconds(250);
    /** One RX page-flip exchange (transfer in + balance page out). */
    static constexpr sim::Time pageFlipPerPage = sim::nanoseconds(2200);
    /** Event-channel send hypercall body. */
    static constexpr sim::Time evtchnSend = sim::nanoseconds(300);
};

/** Protection fault kinds the CDNA architecture can report. */
enum class Fault
{
    kNone,
    kNotOwner,    //!< DMA descriptor names a page the guest doesn't own
    kBadSeqno,    //!< NIC saw a stale/forged descriptor sequence number
    kBadContext,  //!< access to a context not assigned to the caller
    kRingFull,    //!< no descriptor slots available
};

const char *faultName(Fault f);

class Hypervisor : public sim::SimObject
{
  public:
    /**
     * @p prefix is prepended to the names of the hypervisor and its
     * grant table, so hosts sharing one context keep distinct names.
     */
    Hypervisor(sim::SimContext &ctx, cpu::SimCpu &cpu, mem::PhysMemory &mem,
               HvParams params = {}, const std::string &prefix = "");

    /** Create a domain with a fresh vCPU and page-ownership identity. */
    Domain &createDomain(Domain::Kind kind, const std::string &name);

    Domain *domain(mem::DomainId id);
    const std::vector<std::unique_ptr<Domain>> &domains() const
    {
        return domains_;
    }

    /** Create an event channel targeting @p target. */
    EventChannel &createChannel(Domain &target, sim::Time entry_cost,
                                std::function<void()> handler);

    /**
     * Inter-domain notification (evtchn_send hypercall): charges the
     * hypercall + delivery cost, then raises the channel.
     */
    void notifyChannel(EventChannel &ch);

    /**
     * Deliver a virtual interrupt from *hypervisor context* (already in
     * the ISR): charges only the per-delivery cost.
     */
    void deliverVirtIrq(EventChannel &ch);

    /**
     * A device raised its physical interrupt line.
     * @param isr_cost additional ISR body cost beyond the dispatch cost
     * @param body     decode work executed in hypervisor context
     */
    void physicalInterrupt(sim::Time isr_cost, std::function<void()> body);

    /**
     * Execute a hypercall from a domain: charges overhead + @p cost in
     * hypervisor context, then runs @p body.
     */
    void hypercall(sim::Time cost, std::function<void()> body);

    /**
     * Virtual-context page trap (oversubscribed CDNA): a doorbell to a
     * paged-out context lands here.  Charges @p cost in hypervisor
     * context, then runs @p body (the context pager's switch logic).
     */
    void contextTrap(sim::Time cost, std::function<void()> body);

    cpu::SimCpu &cpu() { return cpu_; }
    mem::PhysMemory &mem() { return mem_; }
    mem::GrantTable &grants() { return grants_; }
    const HvParams &params() const { return params_; }

    /** Record a protection fault (reported by the CDNA NIC or checks). */
    void recordFault(mem::DomainId dom, Fault f);

    std::uint64_t faultCount() const { return nFaults_.value(); }
    std::uint64_t faultCount(mem::DomainId dom, Fault f) const;
    std::uint64_t hypercallCount() const { return nHypercalls_.value(); }
    std::uint64_t physIrqCount() const { return nPhysIrqs_.value(); }
    std::uint64_t contextTrapCount() const { return nCxtTraps_.value(); }

  private:
    cpu::SimCpu &cpu_;
    mem::PhysMemory &mem_;
    mem::GrantTable grants_;
    HvParams params_;
    mem::DomainId nextDomId_ = 1;
    std::vector<std::unique_ptr<Domain>> domains_;
    std::vector<std::unique_ptr<EventChannel>> channels_;
    std::vector<std::tuple<mem::DomainId, Fault, sim::Time>> faults_;

    sim::Counter nHypercalls_{stats(), "hypercalls"};
    sim::Counter nPhysIrqs_{stats(), "phys_irqs"};
    sim::Counter nVirtIrqs_{stats(), "virt_irqs"};
    sim::Counter nFaults_{stats(), "faults"};
    sim::Counter nCxtTraps_{stats(), "context_traps"};
};

} // namespace cdna::vmm

#endif // CDNA_VMM_HYPERVISOR_HH
