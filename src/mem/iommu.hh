/**
 * @file
 * IOMMU model (paper section 5.3).
 *
 * The paper discusses AMD's then-proposed IOMMU, which restricts the
 * physical memory a *device* may access, and argues CDNA would need a
 * *per-context* extension.  We model three modes:
 *
 *  - kNone:       no IOMMU; every DMA passes (x86 of 2007).
 *  - kPerDevice:  each device is bound to one domain; a DMA is allowed
 *                 iff the touched page is owned by that domain.
 *  - kPerContext: each (device, context) pair is bound to a domain --
 *                 the extension section 5.3 calls for.
 *
 * The hypervisor keeps bindings in sync with context assignment.  The
 * IOMMU blocks (does not perform) disallowed accesses, unlike the bare
 * machine where they corrupt memory.
 */

#ifndef CDNA_MEM_IOMMU_HH
#define CDNA_MEM_IOMMU_HH

#include <cstdint>
#include <map>
#include <string>

#include "mem/phys_memory.hh"
#include "sim/sim_object.hh"

namespace cdna::mem {

/** Identifier of a DMA-capable device on the bus. */
using DeviceId = std::uint32_t;
/** Identifier of a hardware context within a device (CDNA). */
using ContextId = std::uint32_t;

/** Context value used for DMA issued by the device as a whole. */
inline constexpr ContextId kWholeDevice = 0xFFFFFFFFu;

/** Protection lookup result. */
enum class IommuVerdict { kAllowed, kBlockedNoBinding, kBlockedOwnership };

class Iommu : public sim::SimObject
{
  public:
    enum class Mode { kNone, kPerDevice, kPerContext };

    Iommu(sim::SimContext &ctx, std::string name, PhysMemory &mem,
          Mode mode);

    Mode mode() const { return mode_; }

    /** Bind every context of @p dev to @p dom (per-device mode). */
    void bindDevice(DeviceId dev, DomainId dom);

    /** Bind one context of @p dev to @p dom (per-context mode). */
    void bindContext(DeviceId dev, ContextId cxt, DomainId dom);

    /** Remove a context binding (context revocation). */
    void unbindContext(DeviceId dev, ContextId cxt);

    /**
     * Check a DMA access to @p page by @p dev / @p cxt.
     * In kNone mode everything is allowed.
     */
    IommuVerdict check(DeviceId dev, ContextId cxt, PageNum page);

    std::uint64_t blockedCount() const { return nBlocked_.value(); }

  private:
    PhysMemory &mem_;
    Mode mode_;
    std::map<DeviceId, DomainId> deviceBinding_;
    std::map<std::pair<DeviceId, ContextId>, DomainId> contextBinding_;

    sim::Counter nChecks_{stats(), "checks"};
    sim::Counter nBlocked_{stats(), "blocked"};
};

} // namespace cdna::mem

#endif // CDNA_MEM_IOMMU_HH
