/**
 * @file
 * Hypervisor-side DMA memory protection (paper section 3.3).
 *
 * Guests never write CDNA descriptor rings directly; the hypervisor
 * holds exclusive write access (enforced here by construction: only
 * DmaProtection touches the rings when protection is enabled).  The
 * enqueue hypercall:
 *
 *  1. validates that every page a descriptor references is owned by
 *     the calling guest (rejects with Fault::kNotOwner otherwise);
 *  2. pins those pages by incrementing their reference counts, so a
 *     guest freeing memory mid-DMA cannot get it reallocated under an
 *     outstanding transfer -- the release is deferred;
 *  3. stamps a strictly increasing sequence number into the descriptor
 *     (the NIC refuses descriptors whose numbers are not continuous,
 *     catching producer-index overruns onto stale ring slots);
 *  4. lazily unpins pages of descriptors the NIC has since consumed
 *     (the paper decrements "only when additional DMA descriptors are
 *     enqueued", and so do we, plus at teardown).
 *
 * The ring itself is the record of what is pinned: the unpin reads the
 * SG lists back from the slots it wrote.  Only the hypervisor writes
 * them, and only after unpinning up to the consumer its ring-full
 * check reads, so a pinned slot is never overwritten.
 *
 * With protection disabled (the Table 4 ablation / IOMMU upper bound),
 * enqueue() is the guest writing its own ring: no hypercall, no
 * validation, no pinning and no sequence numbers -- and the attack
 * tests show exactly why that is unsafe.
 */

#ifndef CDNA_CORE_DMA_PROTECTION_HH
#define CDNA_CORE_DMA_PROTECTION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cdna_nic.hh"
#include "core/cost_model.hh"
#include "vmm/hypervisor.hh"

namespace cdna::core {

class DmaProtection : public sim::SimObject
{
  public:
    /** Opaque handle naming one registered (context, direction) ring. */
    using Handle = std::uint32_t;

    /** One descriptor the guest asks to enqueue. */
    struct Request
    {
        mem::SgList sg;
        std::optional<net::Packet> pkt; //!< simulated payload (TX only)
    };

    /** Outcome of an enqueue hypercall. */
    struct Result
    {
        vmm::Fault fault = vmm::Fault::kNone;
        std::uint32_t accepted = 0; //!< descriptors enqueued before fault
        std::uint32_t producer = 0; //!< new free-running producer index
    };

    DmaProtection(sim::SimContext &ctx, std::string name,
                  vmm::Hypervisor &hv, const CostModel &costs, bool enabled);

    bool enabled() const { return enabled_; }

    /**
     * Register a ring for protected enqueue.  Models the hypervisor
     * taking exclusive write access to the ring pages at driver init.
     */
    Handle registerRing(CdnaNic &nic, CdnaNic::ContextId cxt,
                        mem::DomainId dom, bool is_tx);

    /**
     * The enqueue hypercall.  Charges hypervisor time for validation,
     * pinning, stamping and lazy unpinning, then reports the Result.
     * With protection disabled the *guest* writes the ring instead:
     * @p done runs before this returns, and the caller charges its own
     * (guest) cost.
     */
    void enqueue(Handle h, std::vector<Request> reqs,
                 std::function<void(Result)> done);

    /** Drop all pins held for a ring (context revocation / teardown). */
    void unpinAll(Handle h);

    /**
     * Synchronously unpin completed descriptors (the paper notes the
     * counts "could be decremented more aggressively, if necessary" --
     * the driver domain needs this before page-flipping received
     * packets to guests).
     */
    void syncUnpin(Handle h);

    std::uint64_t validationFailures() const { return nRejects_.value(); }
    std::uint64_t pagesPinned() const { return nPins_.value(); }
    std::uint64_t pagesUnpinned() const { return nUnpins_.value(); }
    std::uint64_t enqueueCalls() const { return nEnqueues_.value(); }

  private:
    struct RingState
    {
        CdnaNic *nic;
        CdnaNic::ContextId cxt;
        mem::DomainId dom;
        bool isTx;
        std::uint32_t producer = 0;
        std::uint64_t nextSeqno = 1;
        std::uint32_t unpinnedUpTo = 0; //!< [unpinnedUpTo, producer) pinned
    };

    RingState &state(Handle h);

    /** Apply the modulus the NIC validates against. */
    std::uint64_t stamp(RingState &rs);

    /** Lazily unpin the descriptors the NIC has consumed. */
    void lazyUnpin(RingState &rs);

    /** Unpin the slots from unpinnedUpTo up to @p end or the producer. */
    void unpinUpTo(RingState &rs, std::uint32_t end);

    Result doEnqueue(RingState &rs, std::vector<Request> &reqs);

    vmm::Hypervisor &hv_;
    const CostModel &costs_;
    bool enabled_;
    std::vector<std::unique_ptr<RingState>> rings_;

    sim::Counter nEnqueues_{stats(), "enqueue_calls"};
    sim::Counter nDescs_{stats(), "descriptors"};
    sim::Counter nPins_{stats(), "pages_pinned"};
    sim::Counter nUnpins_{stats(), "pages_unpinned"};
    sim::Counter nRejects_{stats(), "rejects"};
};

} // namespace cdna::core

#endif // CDNA_CORE_DMA_PROTECTION_HH
