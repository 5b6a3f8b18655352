#include "vmm/hypervisor.hh"

#include <utility>

namespace cdna::vmm {

const char *
faultName(Fault f)
{
    switch (f) {
      case Fault::kNone: return "none";
      case Fault::kNotOwner: return "not-owner";
      case Fault::kBadSeqno: return "bad-seqno";
      case Fault::kBadContext: return "bad-context";
      case Fault::kRingFull: return "ring-full";
    }
    return "?";
}

Domain::Domain(sim::SimContext &ctx, Hypervisor &hv, mem::DomainId id,
               std::string name, Kind kind, cpu::Vcpu &vcpu)
    : sim::SimObject(ctx, std::move(name)),
      hv_(hv),
      id_(id),
      kind_(kind),
      vcpu_(vcpu)
{
}

Hypervisor::Hypervisor(sim::SimContext &ctx, cpu::SimCpu &cpu,
                       mem::PhysMemory &mem, HvParams params,
                       const std::string &prefix)
    : sim::SimObject(ctx, prefix + "hypervisor"),
      cpu_(cpu),
      mem_(mem),
      grants_(ctx, prefix + "grant-table", mem),
      params_(params)
{
}

Domain &
Hypervisor::createDomain(Domain::Kind kind, const std::string &name)
{
    mem::DomainId id = nextDomId_++;
    cpu::Vcpu &vcpu = cpu_.createVcpu(id, name + ".vcpu");
    // Guest working sets contend for the cache; the (single) driver
    // domain's footprint is part of the calibrated baseline.
    vcpu.setContends(kind == Domain::Kind::kGuest);
    domains_.push_back(std::make_unique<Domain>(ctx(), *this, id, name,
                                                kind, vcpu));
    return *domains_.back();
}

Domain *
Hypervisor::domain(mem::DomainId id)
{
    for (auto &d : domains_)
        if (d->id() == id)
            return d.get();
    return nullptr;
}

EventChannel &
Hypervisor::createChannel(Domain &target, sim::Time entry_cost,
                          std::function<void()> handler)
{
    channels_.push_back(std::make_unique<EventChannel>(target, entry_cost,
                                                       std::move(handler)));
    return *channels_.back();
}

void
Hypervisor::notifyChannel(EventChannel &ch)
{
    nVirtIrqs_.inc();
    CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), "evtchn_send", now());
    cpu_.runHypervisor(params_.hypercallOverhead + params_.evtchnSend +
                           params_.virtIrqDeliver,
                       [&ch] { ch.notify(); });
}

void
Hypervisor::deliverVirtIrq(EventChannel &ch)
{
    nVirtIrqs_.inc();
    CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), "virt_irq", now());
    cpu_.runHypervisor(params_.virtIrqDeliver, [&ch] { ch.notify(); });
}

void
Hypervisor::physicalInterrupt(sim::Time isr_cost, std::function<void()> body)
{
    nPhysIrqs_.inc();
    CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), "phys_irq", now());
    cpu_.runHypervisor(params_.physIrqDispatch + isr_cost, std::move(body));
}

void
Hypervisor::hypercall(sim::Time cost, std::function<void()> body)
{
    nHypercalls_.inc();
    CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), "hypercall", now());
    cpu_.runHypervisor(params_.hypercallOverhead + cost, std::move(body));
}

void
Hypervisor::contextTrap(sim::Time cost, std::function<void()> body)
{
    nCxtTraps_.inc();
    CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), "cxt_trap", now());
    cpu_.runHypervisor(params_.hypercallOverhead + cost, std::move(body));
}

void
Hypervisor::recordFault(mem::DomainId dom, Fault f)
{
    nFaults_.inc();
    CDNA_TRACE_INSTANT_ARG(ctx().tracer(), traceLane(), "fault", now(),
                           "domain", dom);
    faults_.emplace_back(dom, f, now());
    warn("protection fault: domain %u %s", dom, faultName(f));
}

std::uint64_t
Hypervisor::faultCount(mem::DomainId dom, Fault f) const
{
    std::uint64_t n = 0;
    for (const auto &[d, kind, when] : faults_)
        if (d == dom && kind == f)
            ++n;
    return n;
}

} // namespace cdna::vmm
