/**
 * @file
 * Software-only passthrough validator (Kedia & Bansal's design point).
 *
 * Guests program real Intel-style descriptor rings in their own
 * memory; every doorbell PIO traps into the hypervisor, which audits
 * each descriptor against page ownership / grant state, pins the
 * referenced pages for the DMA lifetime, and shadow-copies accepted
 * descriptors onto ONE shared single-context IntelNic.  RX is
 * demultiplexed in software by destination MAC and copied into
 * guest-posted (validated, pinned) buffers.
 *
 * Contrast with CDNA: protection work is identical in *kind*
 * (validate + pin + stamp), but it runs on the doorbell path of a
 * shared device instead of against per-guest NIC hardware contexts --
 * so every guest's traffic serializes through one hypervisor-owned
 * ring and one interrupt, and the validator itself is a software
 * failure domain (see stall()/restart()).
 */

#ifndef CDNA_VMM_SWPT_VALIDATOR_HH
#define CDNA_VMM_SWPT_VALIDATOR_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.hh"
#include "mem/dma_engine.hh"
#include "net/packet.hh"
#include "nic/intel_nic.hh"
#include "sim/sim_object.hh"
#include "vmm/hypervisor.hh"

namespace cdna::vmm {

class SwptValidator : public sim::SimObject
{
  public:
    using GuestId = std::uint32_t;

    /** One guest-authored TX descriptor handed through a doorbell.
     *  @p sg is what the guest *wrote* (an attacker may forge it);
     *  the validator audits sg, not the packet. */
    struct TxReq
    {
        mem::SgList sg;
        net::Packet pkt;
    };

    /** TX completions surfaced to one guest since it last drained.
     *  A zero-byte entry is an error completion (rejected descriptor). */
    struct Completions
    {
        std::uint32_t count = 0;
        std::vector<std::uint64_t> bytes;
    };

    SwptValidator(sim::SimContext &ctx, std::string name, Hypervisor &hv,
                  nic::IntelNic &nic, const core::CostModel &costs);

    /** Take ownership of the device: allocate hypervisor-owned rings
     *  and RX buffers, enable promiscuous RX, wire the interrupt. */
    void attach();

    /** Register a guest port; the validator creates its event channel
     *  and delivers @p irq_handler upcalls through it. */
    GuestId addGuest(Domain &dom, net::MacAddr mac,
                     std::function<void()> irq_handler);

    // --- doorbells (guest PIO -> hypervisor trap) ------------------------
    /** Guest advertises freshly written TX descriptors. */
    void txDoorbell(GuestId g, std::vector<TxReq> batch);
    /** Guest posts RX buffer pages (each validated + pinned). */
    void rxDoorbell(GuestId g, std::vector<mem::PageNum> pages);

    // --- mailboxes (drained by the guest driver's virtual IRQ) -----------
    Completions takeCompletions(GuestId g);
    std::vector<net::Packet> takeRx(GuestId g);

    // --- fault-plan composition ------------------------------------------
    /** Validator software stalls (dom0-equivalent kill): doorbells
     *  still trap but latch unprocessed; the NIC keeps consuming what
     *  was already posted and its RX ring runs dry. */
    void stall();
    /** Validator restarts: reprocess latched doorbells, drain the
     *  completions and receives that accumulated during the stall. */
    void restart();

    /** Guest killed mid-DMA: drop its latched/queued descriptors,
     *  release its posted RX buffers, stop demuxing to it.  Pages
     *  referenced by descriptors already on the NIC stay pinned until
     *  the device consumes them (the quarantine argument). */
    void detachGuest(GuestId g);
    bool guestActive(GuestId g) const;

    /** Device reset (firmware-reboot fault): quiesce the TX engine and
     *  park the datapath; returns packets dropped in flight. */
    std::uint64_t resetNic();
    /** After the reboot delay: surface the quiesced completions and
     *  restart shadow-ring pumping. */
    void reconcileAfterReset();

    // --- stats ------------------------------------------------------------
    std::uint64_t doorbellTraps() const { return nDoorbells_.value(); }
    std::uint64_t descValidated() const { return nValidated_.value(); }
    std::uint64_t descRejected() const { return nRejected_.value(); }
    /** Hypervisor CPU time spent on the doorbell/validation path. */
    sim::Time validationTime() const { return validationTime_; }

    nic::IntelNic &nic() { return nic_; }

  private:
    struct GuestState
    {
        Domain *dom = nullptr;
        net::MacAddr mac;
        EventChannel *channel = nullptr;
        bool active = true;
        std::deque<TxReq> pendingTx;             //!< latched doorbells
        std::deque<mem::PageNum> pendingRxPost;  //!< latched RX posts
        std::deque<mem::PageNum> rxBufs;         //!< validated + pinned
        Completions comp;                        //!< completion mailbox
        std::vector<net::Packet> rxMail;         //!< delivery mailbox
    };

    /** Accepted descriptor waiting for space on the shared real ring. */
    struct ShadowTx
    {
        GuestId g;
        nic::DmaDescriptor desc;
        net::Packet pkt;
        std::uint64_t bytes;
    };

    /** Descriptor on the NIC; pages pinned until the device consumes.
     *  The NIC frees the ring slot before the completion task unpins,
     *  so this copy of the SG list is the only safe pin record. */
    struct Inflight
    {
        GuestId g;
        std::uint64_t bytes;
        mem::SgList sg;
    };

    GuestState &state(GuestId g);
    void onIrq();
    void handleIrq();
    void processTxPending(GuestId g);
    void processRxPending(GuestId g);
    void validateTxBatch(GuestId g, std::deque<TxReq> batch);
    void validateRxBatch(GuestId g, std::deque<mem::PageNum> pages);
    void pumpShadow();
    void postOwnRxBuffer(mem::PageNum page);
    void pinForDma(const mem::SgList &sg);
    void unpinAfterDma(const mem::SgList &sg);

    Hypervisor &hv_;
    nic::IntelNic &nic_;
    const core::CostModel &costs_;

    std::vector<std::unique_ptr<GuestState>> guests_;
    /** Each active guest's id by its MAC (the RX demux). */
    net::MacTable<GuestId> byMac_;
    std::deque<ShadowTx> shadowQueue_;
    std::deque<Inflight> inflight_;

    bool stalled_ = false;
    bool resetting_ = false;

    // shared real-ring state (free-running, hypervisor-owned)
    std::uint32_t txProducer_ = 0;
    std::uint32_t txDrained_ = 0;
    std::uint32_t rxProducer_ = 0;

    sim::Time validationTime_ = 0;

    sim::Counter nDoorbells_{stats(), "doorbell_traps"};
    sim::Counter nValidated_{stats(), "desc_validated"};
    sim::Counter nRejected_{stats(), "desc_rejected"};
    sim::Counter nRxDemuxDrop_{stats(), "rx_demux_drops"};
    sim::Counter nRxNoBuf_{stats(), "rx_no_guest_buf"};
    sim::Counter nDetachDrops_{stats(), "detach_drops"};
};

} // namespace cdna::vmm

#endif // CDNA_VMM_SWPT_VALIDATOR_HH
