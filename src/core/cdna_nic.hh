/**
 * @file
 * The CDNA network interface (paper sections 3 and 4).
 *
 * A RiceNIC-style programmable Gigabit NIC extended with:
 *  - up to 32 hardware contexts, each an independent virtual NIC with a
 *    page-sized PIO-accessible SRAM partition holding 24 mailboxes;
 *  - a two-level mailbox event bit-vector hierarchy decoded by firmware;
 *  - on-NIC traffic multiplexing: fair round-robin interleave of
 *    transmit traffic across contexts, and receive demultiplexing by
 *    each context's unique Ethernet MAC address;
 *  - per-descriptor sequence-number validation that catches stale or
 *    forged descriptors (the producer-index overrun attack of §3.3);
 *  - interrupt bit vectors DMA'd into a hypervisor circular buffer
 *    before each physical interrupt (§3.2).
 *
 * Each context's TX and RX rings are two instances of one queue (the
 * nic::DescQueue cursor plus the sequence-number and completion state
 * CDNA adds), driven by one path in both directions: startFetch(),
 * validateFetched() and completeDescriptor().  A firmware reboot and a
 * context page-in both end in the one reconcileContext().
 *
 * With a single context assigned to the driver domain this device also
 * serves as the paper's "Xen / RiceNIC" software-virtualization
 * baseline.
 */

#ifndef CDNA_CORE_CDNA_NIC_HH
#define CDNA_CORE_CDNA_NIC_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "core/interrupt_ring.hh"
#include "nic/desc_ring.hh"
#include "nic/firmware.hh"
#include "nic/mailbox.hh"
#include "nic/nic_base.hh"
#include "nic/packet_buffer.hh"
#include "vmm/hypervisor.hh"

namespace cdna::core {

/** Configuration of a CdnaNic: what System and the tests set. */
struct CdnaNicParams
{
    std::uint32_t numContexts = nic::kMaxContexts;
    /** Coalescing window for interrupt bit vectors. */
    sim::Time coalesce = sim::microseconds(70);
    /** Validate descriptor sequence numbers (protection on). */
    bool seqnoCheck = true;
    /**
     * Sequence-number modulus (0 = full 64-bit).  The paper requires at
     * least twice the ring size to prevent a stale descriptor's number
     * from aliasing the expected one.
     */
    std::uint64_t seqnoModulus = 0;
};

class CdnaNic : public nic::NicBase
{
  public:
    using ContextId = mem::ContextId;

    /** The RiceNIC firmware of the paper has no TCP segmentation. */
    static constexpr bool kTso = false;

    /** On-NIC packet buffer per direction (4 MB: 33.5 ms of wire). */
    static constexpr std::uint64_t kTxBufferBytes = 4 * 1024 * 1024;
    static constexpr std::uint64_t kRxBufferBytes = 4 * 1024 * 1024;

    /** Fault callback: (context, owning domain, fault kind). */
    using FaultHandler =
        std::function<void(ContextId, mem::DomainId, vmm::Fault)>;

    /** Page-fault callback: doorbell rang on a paged-out context. */
    using PageFaultHandler = std::function<void(ContextId)>;

    CdnaNic(sim::SimContext &ctx, std::string name, mem::PciBus &bus,
            mem::PhysMemory &mem, mem::DeviceId dev, net::Fabric &fabric,
            CdnaNicParams params = {});

    // ---- hypervisor-facing management (the privileged context) ----------
    /**
     * Allocate a context to @p dom with MAC @p mac: the lowest free
     * entry of the context table, which grows when none is free, so
     * no allocated context's id ever moves.  The context claims a free
     * physical slot; with none left (more contexts than the
     * numContexts SRAM slots) it starts paged out in hypervisor memory,
     * and its first doorbell traps to the context pager.
     */
    ContextId allocContext(mem::DomainId dom, net::MacAddr mac);

    /** Shut down all pending operations of @p cxt and free it (§3.1). */
    void revokeContext(ContextId cxt);

    /** Install the descriptor rings for a context (driver init). */
    void configureContextRings(ContextId cxt, std::uint32_t tx_entries,
                               mem::PhysAddr tx_base,
                               std::uint32_t rx_entries,
                               mem::PhysAddr rx_base);

    /** Guest page the NIC DMA-writes this context's consumer counts to. */
    void setStatusPage(ContextId cxt, mem::PhysAddr addr);

    /** Hypervisor memory for the interrupt bit-vector ring (§3.2). */
    void setInterruptRing(mem::PhysAddr base);

    /**
     * Fault injection: wedge the firmware processor for @p duration.
     * With @p watchdog_reset the on-NIC watchdog reboots the firmware
     * at the end of the stall, losing every queued mailbox event --
     * the recovery then depends on the drivers' mailbox timeouts.
     */
    void stallFirmware(sim::Time duration, bool watchdog_reset);

    /**
     * Fault injection: full firmware reboot (--reboot-firmware).  The
     * running image dies *now*: the event hierarchy, staged and
     * arbitrated descriptors, and the on-NIC packet buffers are all
     * volatile and are lost.  After @p down_time the new image boots
     * and reconciles every allocated context against the
     * hypervisor-validated ring state -- the fetch horizon rolls back
     * to the consumed boundary and the expected sequence numbers are
     * realigned (descriptor i carries seqno i+1) -- charging
     * @p reconcile_per_cxt of firmware time per context.  Producer
     * doorbells are volatile too, so guests' watchdogs must re-ring
     * before traffic resumes; no other domain is involved.
     */
    void rebootFirmware(sim::Time down_time, sim::Time reconcile_per_cxt);

    /** Doorbells deferred by the per-context storm guard. */
    std::uint64_t
    mailboxThrottled() const
    {
        return nMailboxThrottled_.value();
    }

    void setFaultHandler(FaultHandler fn) { faultHandler_ = std::move(fn); }

    // ---- virtual-context residency (oversubscription) --------------------
    /** Doorbells to paged-out contexts invoke @p fn (the context pager). */
    void
    setPageFaultHandler(PageFaultHandler fn)
    {
        pageFaultHandler_ = std::move(fn);
    }

    /**
     * Quiesce @p cxt and evict it from its physical slot.  New work
     * from the context stops immediately (its event hierarchy slot,
     * arbiter entry and staged descriptors are dropped); in-flight
     * datapath operations drain to their completion records first.
     * @p done fires once the slot is free -- the caller (the pager)
     * then charges the save-DMA cost before reusing the slot.
     */
    void pageOutContext(ContextId cxt, std::function<void()> done);

    /**
     * Restore @p cxt into a free physical slot and reconcile its ring
     * state against the hypervisor-validated view with the routine a
     * firmware reboot uses: the fetch horizon rolls back to the consumed
     * boundary and the expected sequence numbers are realigned from the
     * 64-bit completion counts.
     */
    void pageInContext(ContextId cxt);

    /**
     * Re-ring the producer doorbells of a freshly restored context from
     * its saved mailbox words, so the firmware re-fetches work posted
     * while the context was paged out.
     */
    void replayDoorbells(ContextId cxt);

    /** Context currently occupying physical @p slot (if any). */
    std::optional<ContextId> contextAtSlot(std::uint32_t slot) const;

    bool contextResident(ContextId cxt) const;
    std::uint32_t freeSlots() const;
    sim::Time contextLastActive(ContextId cxt) const;

    /** Doorbell traps taken on paged-out contexts. */
    std::uint64_t pageTraps() const { return nCxtTraps_.value(); }
    /** Contexts evicted from their physical slot. */
    std::uint64_t pageEvictions() const { return nCxtEvictions_.value(); }
    /** Contexts restored into a physical slot. */
    std::uint64_t pageIns() const { return nCxtPageIns_.value(); }
    /** High-water mark of simultaneously resident contexts. */
    std::uint32_t residentPeak() const { return residentPeak_; }

    /**
     * Test hook: start a context's free-running ring indices at an
     * arbitrary base (uint32 wraparound regression tests).  @p tx_done64
     * / @p rx_done64 are the 64-bit completion counts; their low 32 bits
     * must equal the corresponding base.
     */
    void seedContextCounters(ContextId cxt, std::uint32_t tx_base,
                             std::uint64_t tx_done64, std::uint32_t rx_base,
                             std::uint64_t rx_done64);

    /**
     * Deliver frames that match no context's MAC to @p cxt (the driver
     * domain's context in the software-virtualization configuration,
     * where the bridge needs frames for every guest MAC).
     */
    void setPromiscuousContext(ContextId cxt) { promiscuousCxt_ = cxt; }

    InterruptRing *interruptRing() { return intrRing_ ? &*intrRing_ : nullptr; }

    bool contextAllocated(ContextId cxt) const;
    mem::DomainId contextDomain(ContextId cxt) const;
    bool contextFaulted(ContextId cxt) const;
    std::uint32_t allocatedContexts() const;

    // ---- guest-facing (through the mapped SRAM partition) ----------------
    /**
     * PIO write to a mailbox of @p cxt.  The CPU cost of the PIO is
     * charged by the calling driver; the hardware event and firmware
     * decode are modeled here.
     */
    void pioWriteMailbox(ContextId cxt, std::uint32_t mbox,
                         std::uint32_t value);

    /**
     * Host-visible consumer count of @p cxt's TX (@p is_tx) or RX ring,
     * as last DMA'd to the guest.
     */
    std::uint32_t consumer(ContextId cxt, bool is_tx) const;
    std::uint32_t
    txConsumer(ContextId cxt) const
    {
        return consumer(cxt, true);
    }
    std::uint32_t
    rxConsumer(ContextId cxt) const
    {
        return consumer(cxt, false);
    }

    /**
     * Guest driver pulls delivered frames for @p cxt.  Each frame's
     * hostSg is the prefix of the posted RX buffer the NIC wrote it
     * into.
     */
    std::vector<net::Packet> drainRx(ContextId cxt);

    /** @p cxt's TX (@p is_tx) or RX descriptor ring. */
    nic::DescRing &ring(ContextId cxt, bool is_tx);
    nic::DescRing &txRing(ContextId cxt) { return ring(cxt, true); }
    nic::DescRing &rxRing(ContextId cxt) { return ring(cxt, false); }

    const CdnaNicParams &params() const { return params_; }

    /** Entries of the context table, allocated or free. */
    std::uint32_t
    contextTableSize() const
    {
        return static_cast<std::uint32_t>(contexts_.size());
    }

    /** Frames transmitted from stale/ghost descriptors (protection off
     *  demonstrations). */
    std::uint64_t ghostTxCount() const { return nGhostTx_.value(); }
    std::uint64_t txPackets() const { return nTxPackets_.value(); }
    std::uint64_t rxPackets() const { return nRxPackets_.value(); }
    std::uint64_t seqnoFaults() const { return nSeqnoFaults_.value(); }
    /** Packets lost because the IOMMU refused their DMA. */
    std::uint64_t iommuDrops() const { return nIommuDrops_.value(); }

    /** Firmware utilization over @p elapsed (bottleneck analysis). */
    double firmwareUtilization(sim::Time elapsed) const
    {
        return fw_.utilization(elapsed);
    }

    /** Cumulative firmware busy time (observability gauges take deltas). */
    sim::Time firmwareBusyTime() const { return fw_.busyTime(); }

    // ---- LinkEndpoint -----------------------------------------------------
    void receiveFrame(net::Packet pkt) override;

  private:
    /** One direction of a context: the ring cursor plus what CDNA adds. */
    struct Queue : nic::DescQueue
    {
        std::uint32_t validated = 0;    //!< validated, in fetch order
        std::uint32_t consumerHost = 0; //!< consumer as the host sees it
        std::uint64_t done64 = 0;       //!< 64-bit shadow of consumer
        std::uint64_t nextSeqno = 1;    //!< the next descriptor's seqno

        /** Validated descriptors not yet used: [used, validated). */
        std::uint32_t ready() const { return validated - used; }
    };

    struct Context
    {
        bool allocated = false;
        bool faulted = false;
        mem::DomainId dom = mem::kDomInvalid;
        net::MacAddr mac;
        nic::MailboxPage mailboxes;
        mem::PhysAddr statusAddr = 0;

        // Virtual-context residency.  With oversubscription disabled
        // every context is permanently resident with slot == id, and
        // none of this state ever changes.
        bool resident = true;
        bool pagingOut = false;
        std::uint32_t slot = 0;
        std::uint64_t cxtEpoch = 0;  //!< bumped at page-out: cancels
                                     //!< the old slot's fetch chains
        std::uint32_t inflight = 0;  //!< datapath ops claimed, not done
        sim::Time lastActive = 0;
        std::function<void()> pageOutDone;

        Queue tx;
        Queue rx;
        bool inTxArb = false;

        Queue &queue(bool is_tx) { return is_tx ? tx : rx; }

        std::vector<net::Packet> rxDeliveries;
        bool wbBusy = false;
        bool wbAgain = false;

        // Doorbell storm guard (token window per context).
        sim::Time dbWindowEnd = 0;
        std::uint32_t dbUsed = 0;
        std::uint32_t dbDeferred = 0; //!< bitmask of throttled mboxes
        bool dbTimerArmed = false;
    };

    Context &cxt(ContextId id);
    const Context &cxt(ContextId id) const;

    int findFreeSlot() const;
    void claimSlot(ContextId id, std::uint32_t slot);
    void releaseSlot(ContextId id);
    void noteInflightDone(ContextId id);
    void settlePageOut(ContextId id);
    void touchActivity(Context &c) { c.lastActive = now(); }

    void handleMailbox(ContextId id, std::uint32_t mbox);
    void postDoorbell(ContextId id, std::uint32_t mbox);
    void flushDeferredDoorbells(ContextId id);
    void startFetch(ContextId id, bool is_tx);
    void validateFetched(ContextId id, bool is_tx, std::uint32_t first,
                         std::uint32_t count);
    bool checkSeqno(std::uint64_t seqno, std::uint64_t *next);
    void reconcileContext(ContextId id);
    void completeDescriptor(ContextId id, bool is_tx);
    void enterFault(ContextId id, vmm::Fault f);
    void enqueueTxArb(ContextId id);
    void pumpTx();
    void scheduleWriteback(ContextId id);
    void noteContextUpdate(ContextId id);
    void fireBitVector();

    CdnaNicParams params_;
    nic::FirmwareProc fw_;
    nic::MailboxEventHier hier_;
    nic::PacketBufferPool txBuf_;
    nic::PacketBufferPool rxBuf_;
    std::vector<Context> contexts_;
    net::MacTable<ContextId> macMap_;
    FaultHandler faultHandler_;
    PageFaultHandler pageFaultHandler_;
    std::optional<ContextId> promiscuousCxt_;

    /** Owning context per physical slot (kNoSlotOwner = free). */
    static constexpr std::uint32_t kNoSlotOwner = 0xFFFFFFFFu;
    std::vector<std::uint32_t> slotOwner_;
    std::uint32_t residentNow_ = 0;
    std::uint32_t residentPeak_ = 0;

    std::deque<ContextId> txArb_;
    bool txDataBusy_ = false;
    bool txWaitingBuffer_ = false;

    std::optional<InterruptRing> intrRing_;
    std::uint32_t pendingVector_ = 0;
    sim::EventId vecTimer_ = sim::kInvalidEvent;
    bool vecDmaBusy_ = false;

    sim::Counter nTxPackets_{stats(), "tx_packets"};
    sim::Counter nRxPackets_{stats(), "rx_packets"};
    sim::Counter nGhostTx_{stats(), "ghost_tx"};
    sim::Counter nSeqnoFaults_{stats(), "seqno_faults"};
    sim::Counter nMailboxEvents_{stats(), "mailbox_events"};
    sim::Counter nBitVectors_{stats(), "bit_vectors"};
    sim::Counter nIommuDrops_{stats(), "iommu_drops"};
    sim::Counter nMailboxThrottled_{stats(), "mailbox_throttled"};
    sim::Counter nCxtTraps_{stats(), "cxt_page_traps"};
    sim::Counter nCxtEvictions_{stats(), "cxt_evictions"};
    sim::Counter nCxtPageIns_{stats(), "cxt_page_ins"};
};

} // namespace cdna::core

#endif // CDNA_CORE_CDNA_NIC_HH
