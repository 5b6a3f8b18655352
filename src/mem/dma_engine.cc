#include "mem/dma_engine.hh"

#include <algorithm>
#include <utility>

#include "sim/fault_injector.hh"

namespace cdna::mem {

std::uint64_t
sgBytes(const SgList &sg)
{
    std::uint64_t n = 0;
    for (const auto &e : sg)
        n += e.len;
    return n;
}

SgList
sgPrefix(const SgList &sg, std::uint64_t bytes)
{
    SgList out;
    for (const auto &e : sg) {
        if (bytes == 0)
            break;
        auto take = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(e.len, bytes));
        out.push_back({e.addr, take});
        bytes -= take;
    }
    return out;
}

std::uint64_t
sgPages(const SgList &sg)
{
    std::uint64_t n = 0;
    forEachSgPage(sg, [&n](PageNum) {
        ++n;
        return true;
    });
    return n;
}

DmaEngine::DmaEngine(sim::SimContext &ctx, std::string name, PciBus &bus,
                     PhysMemory &mem, DeviceId dev, Iommu *iommu)
    : sim::SimObject(ctx, std::move(name)),
      bus_(bus),
      mem_(mem),
      dev_(dev),
      iommu_(iommu),
      nReads_(stats().addCounter("reads")),
      nWrites_(stats().addCounter("writes")),
      nReadBytes_(stats().addCounter("read_bytes")),
      nWriteBytes_(stats().addCounter("write_bytes"))
{
}

void
DmaEngine::read(const SgList &sg, DomainId behalf, ContextId cxt, Callback cb)
{
    nReads_.inc();
    nReadBytes_.inc(sgBytes(sg));
    doTransfer(sg, behalf, cxt, false, std::move(cb));
}

void
DmaEngine::write(const SgList &sg, DomainId behalf, ContextId cxt, Callback cb)
{
    nWrites_.inc();
    nWriteBytes_.inc(sgBytes(sg));
    doTransfer(sg, behalf, cxt, true, std::move(cb));
}

void
DmaEngine::doTransfer(const SgList &sg, DomainId behalf, ContextId cxt,
                      bool write, Callback cb)
{
    DmaResult result;
    forEachSgPage(sg, [&](PageNum p) {
        if (iommu_ && iommu_->check(dev_, cxt, p) != IommuVerdict::kAllowed)
            ++result.blockedPages; // access suppressed by the IOMMU
        else if (!mem_.noteDmaAccess(p, behalf, write))
            result.safe = false;
        return true;
    });
    std::uint64_t carried = sgBytes(sg);
    // Fault injection: a delayed completion widens the window between a
    // descriptor being consumed and its pages being released, stressing
    // the protection layer's deferred-reallocation rule.
    sim::Time extra = 0;
    if (sim::FaultInjector *fi = ctx().faultInjector(); fi && fi->dmaArmed())
        extra = fi->dmaDelay();
    if (extra > 0) {
        bus_.transfer(carried, [this, cb = std::move(cb), result, extra] {
            events().schedule(extra, [cb, result] { cb(result); });
        });
        return;
    }
    bus_.transfer(carried, [cb = std::move(cb), result] { cb(result); });
}

} // namespace cdna::mem
