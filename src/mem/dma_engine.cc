#include "mem/dma_engine.hh"

#include <algorithm>
#include <utility>

#include "sim/fault_injector.hh"

namespace cdna::mem {

std::uint64_t
sgBytes(std::span<const SgEntry> sg)
{
    std::uint64_t n = 0;
    for (const auto &e : sg)
        n += e.len;
    return n;
}

SgList
sgPrefix(std::span<const SgEntry> sg, std::uint64_t bytes)
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
sgPages(std::span<const SgEntry> sg)
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
      iommu_(iommu)
{
}

void
DmaEngine::read(std::span<const SgEntry> sg, DomainId behalf, ContextId cxt,
                Callback cb)
{
    nReads_.inc();
    nReadBytes_.inc(sgBytes(sg));
    doTransfer(sg, behalf, cxt, false, std::move(cb));
}

void
DmaEngine::write(std::span<const SgEntry> sg, DomainId behalf, ContextId cxt,
                 Callback cb)
{
    nWrites_.inc();
    nWriteBytes_.inc(sgBytes(sg));
    doTransfer(sg, behalf, cxt, true, std::move(cb));
}

void
DmaEngine::doTransfer(std::span<const SgEntry> sg, DomainId behalf,
                      ContextId cxt, bool write, Callback cb)
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
    sim::FaultInjector *fi = ctx().faultInjector();
    if (!fi || !fi->dmaArmed()) {
        bus_.transfer(carried, [cb = std::move(cb), result] { cb(result); });
        return;
    }
    // Fault injection: a delayed completion widens the window between a
    // descriptor being consumed and its pages being released, stressing
    // the protection layer's deferred-reallocation rule.  PCIe keeps one
    // device's writes in order, so a delayed completion also holds back
    // every later completion of this engine: the bus delivers them here
    // in the order they were started, and equal times run in
    // scheduling order.
    sim::Time extra = fi->dmaDelay();
    bus_.transfer(carried, [this, cb = std::move(cb), result,
                            extra]() mutable {
        orderedUntil_ = std::max(now() + extra, orderedUntil_);
        events().scheduleAt(orderedUntil_,
                            [cb = std::move(cb), result] { cb(result); });
    });
}

} // namespace cdna::mem
