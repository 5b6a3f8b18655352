#include "nic/nic_base.hh"

#include <utility>

namespace cdna::nic {

NicBase::NicBase(sim::SimContext &ctx, std::string name, mem::PciBus &bus,
                 mem::PhysMemory &mem, mem::DeviceId dev, net::Fabric &fabric)
    : sim::SimObject(ctx, std::move(name)),
      port_(fabric.bind(*this)),
      dma_(ctx, this->name() + ".dma", bus, mem, dev)
{
}

void
NicBase::notePendingEvent()
{
    ++pendingEvents_;
    if (pendingEvents_ >= coalesce_.eventThreshold) {
        raiseIrq();
        return;
    }
    if (coalesceTimer_ == sim::kInvalidEvent) {
        coalesceTimer_ = events().schedule(coalesce_.delay, [this] {
            coalesceTimer_ = sim::kInvalidEvent;
            if (pendingEvents_ > 0)
                raiseIrq();
        });
    }
}

void
NicBase::raiseIrq()
{
    pendingEvents_ = 0;
    if (coalesceTimer_ != sim::kInvalidEvent) {
        events().cancel(coalesceTimer_);
        coalesceTimer_ = sim::kInvalidEvent;
    }
    nIrqs_.inc();
    if (irq_)
        irq_();
}

} // namespace cdna::nic
