#include "mem/iommu.hh"

#include <utility>

namespace cdna::mem {

Iommu::Iommu(sim::SimContext &ctx, std::string name, PhysMemory &mem,
             Mode mode)
    : sim::SimObject(ctx, std::move(name)),
      mem_(mem),
      mode_(mode)
{
}

void
Iommu::bindDevice(DeviceId dev, DomainId dom)
{
    deviceBinding_[dev] = dom;
}

void
Iommu::bindContext(DeviceId dev, ContextId cxt, DomainId dom)
{
    contextBinding_[{dev, cxt}] = dom;
}

void
Iommu::unbindContext(DeviceId dev, ContextId cxt)
{
    contextBinding_.erase({dev, cxt});
}

IommuVerdict
Iommu::check(DeviceId dev, ContextId cxt, PageNum page)
{
    if (mode_ == Mode::kNone)
        return IommuVerdict::kAllowed;
    nChecks_.inc();

    DomainId dom = kDomInvalid;
    if (mode_ == Mode::kPerDevice) {
        auto it = deviceBinding_.find(dev);
        if (it == deviceBinding_.end()) {
            nBlocked_.inc();
            return IommuVerdict::kBlockedNoBinding;
        }
        dom = it->second;
    } else {
        auto it = contextBinding_.find({dev, cxt});
        if (it == contextBinding_.end()) {
            // A whole-device access in per-context mode falls back to the
            // device binding (e.g. interrupt bit-vector DMA bound to the
            // hypervisor).
            auto dit = deviceBinding_.find(dev);
            if (dit == deviceBinding_.end()) {
                nBlocked_.inc();
                return IommuVerdict::kBlockedNoBinding;
            }
            dom = dit->second;
        } else {
            dom = it->second;
        }
    }

    if (!mem_.dmaAccessibleBy(page, dom)) {
        nBlocked_.inc();
        return IommuVerdict::kBlockedOwnership;
    }
    return IommuVerdict::kAllowed;
}

} // namespace cdna::mem
