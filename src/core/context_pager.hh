/**
 * @file
 * Hypervisor-managed virtual-context pager for the CDNA NIC.
 *
 * The NIC has a fixed number of physical SRAM context slots (32 on the
 * paper's RiceNIC); the pager multiplexes an arbitrary number of
 * virtual contexts over them.  A doorbell to a paged-out context traps
 * to the hypervisor (CdnaNic::setPageFaultHandler); the pager then
 *
 *   1. charges the trap cost in hypervisor context,
 *   2. picks the least recently active resident context as the
 *      eviction victim when no slot is free,
 *   3. quiesces the victim with the NIC's epoch-guarded quiesce (new
 *      work stops, in-flight datapath ops drain to their completions),
 *   4. charges the quiesce epoch + save-DMA cost, notifies the evicted
 *      guest so its driver collects the final completions,
 *   5. charges the restore-DMA cost, restores the faulting context
 *      (firmware-reboot-style reconciliation inside pageInContext) and
 *      replays its producer doorbells from the saved mailbox words.
 *
 * Switches are serialized -- one context switch at a time per NIC --
 * and trap requests for a context already queued or in flight are
 * coalesced, so a storming paged-out guest cannot queue unbounded
 * work.
 */

#ifndef CDNA_CORE_CONTEXT_PAGER_HH
#define CDNA_CORE_CONTEXT_PAGER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>

#include "core/cdna_nic.hh"
#include "vmm/hypervisor.hh"

namespace cdna::core {

class ContextPager : public sim::SimObject
{
  public:
    ContextPager(sim::SimContext &ctx, std::string name,
                 vmm::Hypervisor &hv, CdnaNic &nic);

    /** Doorbell trap on paged-out @p cxt (wire to the NIC's handler). */
    void onTrap(CdnaNic::ContextId cxt);

    /**
     * Invoked after a victim's eviction completes (its in-flight ops
     * drained and its image saved); System uses it to deliver a virtual
     * interrupt so the evicted guest's driver collects the final
     * completion records.
     */
    void
    setEvictedHook(std::function<void(CdnaNic::ContextId)> fn)
    {
        evictedHook_ = std::move(fn);
    }

    /**
     * Victim to evict now (exposed for tests): the least recently
     * active allocated resident context; ties break towards the lowest
     * context id for determinism.
     */
    std::optional<CdnaNic::ContextId> pickVictim() const;

  private:
    void pump();
    void beginSwitch(CdnaNic::ContextId target);
    void restore(CdnaNic::ContextId target);

    vmm::Hypervisor &hv_;
    CdnaNic &nic_;
    std::function<void(CdnaNic::ContextId)> evictedHook_;

    std::deque<CdnaNic::ContextId> pending_;
    std::optional<CdnaNic::ContextId> current_;
};

} // namespace cdna::core

#endif // CDNA_CORE_CONTEXT_PAGER_HH
