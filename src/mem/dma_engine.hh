/**
 * @file
 * Per-device DMA engine.
 *
 * Devices move data to/from host memory through a DmaEngine, which
 * charges the shared PCI bus for the bytes, runs the (optional) IOMMU
 * check, and records every page touched against the ownership map so
 * protection violations are detected at *access* time -- the property
 * CDNA's deferred-reallocation rule exists to preserve.
 */

#ifndef CDNA_MEM_DMA_ENGINE_HH
#define CDNA_MEM_DMA_ENGINE_HH

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "mem/iommu.hh"
#include "mem/pci_bus.hh"
#include "mem/phys_memory.hh"
#include "sim/sim_object.hh"

namespace cdna::mem {

/** One contiguous piece of a scatter/gather transfer. */
struct SgEntry
{
    PhysAddr addr = 0;
    std::uint32_t len = 0;
};

/** Scatter/gather list. */
using SgList = std::vector<SgEntry>;

/** Total byte count of a scatter/gather list. */
std::uint64_t sgBytes(std::span<const SgEntry> sg);

/** Prefix of @p sg covering its first @p bytes. */
SgList sgPrefix(const SgList &sg, std::uint64_t bytes);

/**
 * Call @p fn(page) for every page the entries of @p sg span, in order,
 * until it returns false.  A zero-length entry spans no pages.
 * @return false when @p fn stopped the walk
 */
template <typename Fn>
bool
forEachSgPage(std::span<const SgEntry> sg, Fn &&fn)
{
    for (const SgEntry &e : sg) {
        if (e.len == 0)
            continue;
        PageNum last = pageOf(e.addr + e.len - 1);
        for (PageNum p = pageOf(e.addr); p <= last; ++p)
            if (!fn(p))
                return false;
    }
    return true;
}

/** Number of pages the entries of @p sg span. */
std::uint64_t sgPages(const SgList &sg);

/** Outcome of a DMA operation. */
struct DmaResult
{
    bool safe = true;           //!< no ownership violations occurred
    std::uint32_t blockedPages = 0; //!< pages the IOMMU refused to access
};

class DmaEngine : public sim::SimObject
{
  public:
    using Callback = std::function<void(DmaResult)>;

    /**
     * @param ctx   simulation context
     * @param name  component name
     * @param bus   shared PCI bus the transfers are charged to
     * @param mem   host physical memory (ownership map)
     * @param dev   this device's id for IOMMU lookups
     * @param iommu optional IOMMU; null means unchecked 2007-era x86 DMA
     */
    DmaEngine(sim::SimContext &ctx, std::string name, PciBus &bus,
              PhysMemory &mem, DeviceId dev, Iommu *iommu = nullptr);

    /**
     * Device reads host memory (descriptor fetch, TX payload).  @p sg
     * is read only during the call, so it may view a list @p cb owns.
     */
    void read(std::span<const SgEntry> sg, DomainId behalf, ContextId cxt,
              Callback cb);

    /**
     * Device writes host memory (RX payload, completion records); @p sg
     * as for read().
     */
    void write(std::span<const SgEntry> sg, DomainId behalf, ContextId cxt,
               Callback cb);

    DeviceId deviceId() const { return dev_; }
    void setIommu(Iommu *iommu) { iommu_ = iommu; }

    std::uint64_t bytesRead() const { return nReadBytes_.value(); }

  private:
    void doTransfer(std::span<const SgEntry> sg, DomainId behalf,
                    ContextId cxt, bool write, Callback cb);

    PciBus &bus_;
    PhysMemory &mem_;
    DeviceId dev_;
    Iommu *iommu_;
    /** Latest completion time handed out while a DMA delay is armed. */
    sim::Time orderedUntil_ = 0;

    sim::Counter nReads_{stats(), "reads"};
    sim::Counter nWrites_{stats(), "writes"};
    sim::Counter nReadBytes_{stats(), "read_bytes"};
    sim::Counter nWriteBytes_{stats(), "write_bytes"};
};

} // namespace cdna::mem

#endif // CDNA_MEM_DMA_ENGINE_HH
