#include "core/context_pager.hh"

#include <algorithm>
#include <utility>

#include "core/cost_model.hh"
#include "sim/assert.hh"

namespace cdna::core {

ContextPager::ContextPager(sim::SimContext &ctx, std::string name,
                           vmm::Hypervisor &hv, CdnaNic &nic)
    : sim::SimObject(ctx, std::move(name)),
      hv_(hv),
      nic_(nic)
{
}

void
ContextPager::onTrap(CdnaNic::ContextId target)
{
    // Coalesce: a context already queued or mid-switch needs no second
    // switch -- the doorbell value is in its saved mailbox image and the
    // replay at page-in covers it.  The trap itself was already counted
    // and its hypervisor entry is charged below.
    if (current_ == target ||
        std::find(pending_.begin(), pending_.end(), target) !=
            pending_.end())
        return;
    pending_.push_back(target);
    hv_.contextTrap(CostModel::cxtPageTrap, [this] { pump(); });
}

void
ContextPager::pump()
{
    if (current_.has_value())
        return; // a switch is in flight; its completion re-pumps
    while (!pending_.empty()) {
        CdnaNic::ContextId target = pending_.front();
        pending_.pop_front();
        // Revoked or already restored meanwhile: nothing to do.
        if (!nic_.contextAllocated(target) ||
            nic_.contextResident(target))
            continue;
        current_ = target;
        beginSwitch(target);
        return;
    }
}

std::optional<CdnaNic::ContextId>
ContextPager::pickVictim() const
{
    std::optional<CdnaNic::ContextId> best;
    sim::Time bestActive = 0;
    for (CdnaNic::ContextId id = 0; id < nic_.contextTableSize(); ++id) {
        if (!nic_.contextAllocated(id) || !nic_.contextResident(id))
            continue;
        // Strictly older wins, so ties keep the lowest id.
        sim::Time active = nic_.contextLastActive(id);
        if (!best.has_value() || active < bestActive) {
            best = id;
            bestActive = active;
        }
    }
    return best;
}

void
ContextPager::beginSwitch(CdnaNic::ContextId target)
{
    if (nic_.freeSlots() > 0) {
        restore(target);
        return;
    }
    auto victim = pickVictim();
    SIM_ASSERT(victim.has_value(),
               "no evictable context despite full slots");
    nic_.pageOutContext(*victim, [this, victim = *victim, target] {
        // Quiesce drained; charge the quiesce epoch plus the save DMA
        // that copies the victim's SRAM image out to host memory.
        events().schedule(CostModel::cxtQuiesce + CostModel::cxtSaveDma,
                          [this, victim, target] {
            if (evictedHook_)
                evictedHook_(victim);
            restore(target);
        });
    });
}

void
ContextPager::restore(CdnaNic::ContextId target)
{
    events().schedule(CostModel::cxtRestoreDma, [this, target] {
        // The target can have been revoked while the DMA was in
        // flight; the slot simply stays free for the next fault.
        if (nic_.contextAllocated(target) &&
            !nic_.contextResident(target)) {
            nic_.pageInContext(target);
            nic_.replayDoorbells(target);
        }
        current_.reset();
        pump();
    });
}

} // namespace cdna::core
