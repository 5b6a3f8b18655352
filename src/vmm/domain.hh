/**
 * @file
 * A virtual machine (Xen "domain").
 *
 * Domains tie together an identity (DomainId used for page ownership),
 * a vCPU on the simulated core, and a kind (the privileged driver
 * domain vs an untrusted guest) used by report aggregation.
 */

#ifndef CDNA_VMM_DOMAIN_HH
#define CDNA_VMM_DOMAIN_HH

#include <string>

#include "cpu/sim_cpu.hh"
#include "mem/phys_memory.hh"
#include "sim/sim_object.hh"

namespace cdna::vmm {

class Hypervisor;

class Domain : public sim::SimObject
{
  public:
    enum class Kind { kDriver, kGuest };

    Domain(sim::SimContext &ctx, Hypervisor &hv, mem::DomainId id,
           std::string name, Kind kind, cpu::Vcpu &vcpu);

    mem::DomainId id() const { return id_; }
    Kind kind() const { return kind_; }
    cpu::Vcpu &vcpu() { return vcpu_; }
    Hypervisor &hypervisor() { return hv_; }

    /** Virtual interrupts delivered to this domain. */
    sim::Counter &virtIrqs() { return nVirtIrqs_; }
    std::uint64_t virtIrqCount() const { return nVirtIrqs_.value(); }

  private:
    Hypervisor &hv_;
    mem::DomainId id_;
    Kind kind_;
    cpu::Vcpu &vcpu_;
    sim::Counter nVirtIrqs_{stats(), "virt_irqs"};
};

} // namespace cdna::vmm

#endif // CDNA_VMM_DOMAIN_HH
