/**
 * @file
 * The CDNA guest device driver (paper sections 3.1, 3.3, 3.4).
 *
 * Each guest's driver interacts with its private hardware context
 * exactly as if the context were an independent physical NIC: it builds
 * DMA descriptors, asks the hypervisor to enqueue them (the protected
 * path), and rings the context's mailbox doorbell by PIO.  A small
 * library translates driver virtual addresses to physical addresses
 * before the hypercall (section 3.4).  Completions arrive as virtual
 * interrupts raised from the NIC's interrupt bit vectors.
 *
 * The driver also runs in the driver domain against a single context to
 * reproduce the paper's "Xen / RiceNIC" software-virtualization rows,
 * so it implements the backend-facing refill interface too.
 */

#ifndef CDNA_CORE_CDNA_DRIVER_HH
#define CDNA_CORE_CDNA_DRIVER_HH

#include <cstdint>
#include <deque>

#include "core/cdna_nic.hh"
#include "core/cost_model.hh"
#include "core/dma_protection.hh"
#include "os/net_device.hh"
#include "vmm/hypervisor.hh"

namespace cdna::core {

class CdnaGuestDriver : public sim::SimObject, public os::NetDevice
{
  public:
    /**
     * @param dom  owning domain (a guest, or the driver domain)
     * @param nic  the CDNA NIC
     * @param cxt  hardware context assigned to @p dom by the hypervisor
     * @param prot the hypervisor's protection service
     */
    CdnaGuestDriver(sim::SimContext &ctx, std::string name,
                    vmm::Domain &dom, CdnaNic &nic,
                    CdnaNic::ContextId cxt, DmaProtection &prot,
                    const CostModel &costs, net::MacAddr mac);

    /**
     * Bring the interface up: register rings with the protection
     * service and post the initial receive buffers.
     */
    void attach();

    /**
     * Tear the interface down (context revocation, section 3.1): stop
     * issuing doorbells/enqueues and drop every DMA pin held for this
     * context so its pages become reclaimable.  In-flight callbacks
     * become no-ops.
     */
    void detach();

    bool detached() const { return detached_; }

    /**
     * Point a detached driver at a fresh hardware context (driver
     * recovery after its domain restarts: the old context was revoked
     * with the crash, the restarted domain allocates a new one and
     * attach()es again from scratch).
     */
    void rebind(CdnaNic::ContextId cxt);

    /** Handle the context's virtual interrupt (wired by the system). */
    void handleIrq();

    // --- NetDevice ------------------------------------------------------
    bool canTransmit() const override;
    void flush() override;
    net::MacAddr mac() const override { return mac_; }
    bool tsoCapable() const override { return CdnaNic::kTso; }
    void setAutoRefill(bool on) override { autoRefill_ = on; }
    void refillRx(mem::PageNum page) override;

    CdnaNic::ContextId context() const { return cxt_; }
    vmm::Domain &domain() { return dom_; }

    /** Ring-doorbell writes issued (PIO mailbox updates). */
    std::uint64_t doorbells() const { return nDoorbells_.value(); }

  private:
    void flushRxRefills();
    void armWatchdog();
    void fireWatchdog();

    vmm::Domain &dom_;
    CdnaNic &nic_;
    CdnaNic::ContextId cxt_;
    DmaProtection &prot_;
    const CostModel &costs_;
    net::MacAddr mac_;

    DmaProtection::Handle txHandle_ = 0;
    DmaProtection::Handle rxHandle_ = 0;

    // TX
    std::deque<std::uint64_t> txInflightBytes_;
    std::uint32_t txEnqueued_ = 0;
    std::uint32_t txDrained_ = 0;
    bool txFlushPending_ = false;

    // RX
    std::deque<mem::PageNum> rxRefillStage_;
    std::uint32_t rxEnqueued_ = 0;
    bool rxFlushPending_ = false;
    bool autoRefill_ = true;
    bool detached_ = false;

    // Mailbox-timeout watchdog (armed only under fault injection; see
    // armWatchdog()).  The NIC can lose rung doorbells across a
    // firmware watchdog reboot; the driver detects the resulting lack
    // of consumer progress and re-rings both producer mailboxes, which
    // is idempotent when nothing was actually lost.
    static constexpr sim::Time kWatchdogBase = sim::kMillisecond;
    static constexpr sim::Time kWatchdogMax = 16 * sim::kMillisecond;
    bool watchdogArmed_ = false;
    sim::Time watchdogDelay_ = kWatchdogBase;
    std::uint32_t wdTxConsumer_ = 0;
    std::uint32_t wdRxConsumer_ = 0;

    sim::Counter nDoorbells_{stats(), "doorbells"};
    sim::Counter nTxPkts_{stats(), "tx_packets"};
    sim::Counter nRxPkts_{stats(), "rx_packets"};
    sim::Counter nFaultsSeen_{stats(), "faults_seen"};
};

} // namespace cdna::core

#endif // CDNA_CORE_CDNA_DRIVER_HH
