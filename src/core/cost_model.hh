/**
 * @file
 * The calibrated CPU/firmware cost model.
 *
 * Every software action in the simulated system charges time from this
 * table.  Defaults are calibrated so the six headline configurations
 * land near the paper's measurements (Tables 1-4) and the guest sweeps
 * reproduce Figures 3-4; EXPERIMENTS.md records measured-vs-paper.
 *
 * The calibration describes one fixed testbed, so every value is a
 * static constexpr member except the six an ablation varies: the CDNA
 * transmit coalescing window (the coalesce preset), the four
 * protection costs and the hypercall overhead in hv (the protection
 * preset).  Reading any value through an instance still compiles
 * (cfg.costs.irqEntry); components that only read fixed values name
 * them as CostModel::x and hold no CostModel.  Varying another cost
 * means making it an instance member and setting it from a preset.
 *
 * Calibration sources and caveats:
 *  - TCP acknowledgments ARE simulated as real reverse-path frames
 *    (the peer ACKs every ackPerFrames data frames; guests generate
 *    delayed ACKs for received data), so the driver-domain and guest
 *    cost of the ACK path on transmit tests emerges from the same
 *    constants as the receive path.
 *  - Costs are per *operation* (per segment, per page, per interrupt),
 *    so batching effects -- the mechanism behind the paper's
 *    scalability shapes -- emerge from the simulation rather than being
 *    baked into the constants.
 */

#ifndef CDNA_CORE_COST_MODEL_HH
#define CDNA_CORE_COST_MODEL_HH

#include "cpu/sim_cpu.hh"
#include "net/eth_switch.hh"
#include "nic/nic_base.hh"
#include "sim/time.hh"
#include "vmm/hypervisor.hh"

namespace cdna::core {

using sim::Time;

/** All calibrated software-path costs; six are settable per run. */
struct CostModel
{
    // ---- application (user mode) --------------------------------------
    /** Per 64 KB socket write (syscall + buffer handling). */
    static constexpr Time appPerWrite = sim::microseconds(2.0);
    /** Per 64 KB of received data consumed by the application. */
    static constexpr Time appPerRead = sim::microseconds(1.8);
    /** Per payload byte touched in user mode (single reused buffer). */
    static constexpr double appPerByteNs = 0.004;

    // ---- kernel network stack (OS mode) --------------------------------
    /** Per TSO segment or frame pushed through the TX stack. */
    static constexpr Time stackTxPerPacket = sim::nanoseconds(550);
    /** Per TX payload byte (user copy; checksum offloaded). */
    static constexpr double stackTxPerByteNs = 0.22;
    /** Per frame delivered up the RX stack. */
    static constexpr Time stackRxPerPacket = sim::microseconds(1.15);
    /** Per RX payload byte (copy to user). */
    static constexpr double stackRxPerByteNs = 0.40;
    /** Processing an incoming TCP ACK (window update, skb free). */
    static constexpr Time stackAckRxCost = sim::nanoseconds(300);
    /** Generating an outgoing TCP ACK. */
    static constexpr Time stackAckTxCost = sim::nanoseconds(450);
    /** Send one ACK per this many received data frames. */
    static constexpr std::uint32_t ackPerFrames = 2;

    // ---- native NIC driver (driver domain or native Linux) -------------
    static constexpr Time drvTxPerPacket = sim::nanoseconds(800);
    static constexpr Time drvTxCompletion = sim::nanoseconds(400);
    static constexpr Time drvRxPerPacket = sim::nanoseconds(1200);
    static constexpr Time drvPioWrite = sim::nanoseconds(400);
    /** Fixed handler cost per interrupt taken (beyond upcall entry). */
    static constexpr Time drvIrqHandler = sim::nanoseconds(1000);
    /** Upcall/IRQ entry cost charged to the interrupted OS. */
    static constexpr Time irqEntry = sim::nanoseconds(900);

    // ---- Xen paravirtual path (frontend / backend / bridge) ------------
    // Xen's paravirtual costs are dominantly per-byte/per-page (grant
    // machinery scales with the data spanned), which is why the paper's
    // TSO (Intel) and non-TSO (RiceNIC) rows land so close together.
    /** Frontend per TX packet: build request, issue grant (guest side). */
    static constexpr Time feTxPerPacket = sim::nanoseconds(200);
    /** Frontend per TX payload byte (grant/page handling). */
    static constexpr double feTxPerByteNs = 1.35;
    /** Frontend per TX response processed. */
    static constexpr Time feTxCompletion = sim::nanoseconds(150);
    /** Frontend per RX packet: consume response, re-post buffer. */
    static constexpr Time feRxPerPacket = sim::nanoseconds(1000);
    /** Backend per TX packet (map, build skb, hand to bridge). */
    static constexpr Time beTxPerPacket = sim::nanoseconds(200);
    /** Backend per TX payload byte (map/copy machinery). */
    static constexpr double beTxPerByteNs = 0.60;
    /** Backend per RX packet (flip bookkeeping, push response). */
    static constexpr Time beRxPerPacket = sim::nanoseconds(1700);
    /** Backend per RX payload byte. */
    static constexpr double beRxPerByteNs = 0.80;
    /**
     * Copy-mode netback (the mechanism that later replaced page
     * flipping in Xen): per-byte memcpy cost of moving a received
     * frame into the guest's posted page.
     */
    static constexpr double beRxCopyPerByteNs = 0.45;
    /** Backend per TX completion (push response, free state). */
    static constexpr Time beTxCompletion = sim::nanoseconds(100);
    /** Bridge forwarding decision per packet. */
    static constexpr Time bridgePerPacket = sim::nanoseconds(400);
    /** Fixed cost per backend/driver-domain wakeup (scan vifs etc.). */
    static constexpr Time backendPerWake = sim::microseconds(1.6);

    // ---- CDNA guest driver ----------------------------------------------
    /** Virtual-to-physical translation library, per page (section 3.4). */
    static constexpr Time cdnaTranslatePerPage = sim::nanoseconds(150);
    static constexpr Time cdnaDrvTxPerPacket = sim::nanoseconds(450);
    static constexpr Time cdnaDrvRxPerPacket = sim::nanoseconds(400);
    static constexpr Time cdnaDrvCompletion = sim::nanoseconds(150);

    // ---- hypervisor DMA memory protection (section 3.3) ----------------
    // Settable: the protection preset zeroes each in turn.
    /** Validate that the caller owns one referenced page. */
    Time protValidatePerPage = sim::nanoseconds(100);
    /** Increment the page reference count (pin). */
    Time protPinPerPage = sim::nanoseconds(40);
    /** Lazy unpin of a completed descriptor's page. */
    Time protUnpinPerPage = sim::nanoseconds(40);
    /** Stamp the sequence number and copy the descriptor into the ring. */
    Time protEnqueuePerDesc = sim::nanoseconds(90);

    // ---- failure-domain recovery (driver-domain crash, fw reboot) -------
    /**
     * Wall time from a driver-domain crash until the restarted domain
     * is ready to accept frontend reconnections (kernel boot + netback
     * init, compressed to simulation scale).
     */
    static constexpr Time driverDomainReboot = sim::milliseconds(10.0);
    /**
     * Bound on how long the NIC DMA engine may keep referencing pages
     * that were granted to the crashed domain; revoked grant pages stay
     * quarantined (pinned, DMA window open) this long before they may
     * be reused.  The TX engine is quiesced at kill time, so this only
     * has to cover DMA transactions already in flight at that instant;
     * it stays well below the driver-domain reboot cost so pages are
     * reusable before the restarted backend allocates.
     */
    static constexpr Time dmaQuarantineDrain = sim::microseconds(500.0);
    /** Frontend watchdog period for detecting a dead backend. */
    static constexpr Time feWatchdogPeriod = sim::milliseconds(1.0);
    /** First reconnect retry delay; doubles per failed attempt. */
    static constexpr Time feReconnectBackoffBase = sim::milliseconds(1.0);
    /** Reconnect backoff ceiling. */
    static constexpr Time feReconnectBackoffMax = sim::milliseconds(8.0);
    /** Guest CPU cost of renegotiating rings/grants on reconnect. */
    static constexpr Time feReconnectCost = sim::microseconds(15);
    /** NIC firmware reboot downtime (--reboot-firmware). */
    static constexpr Time firmwareReboot = sim::milliseconds(2.0);
    /** Firmware cost to reconcile one context after a reboot. */
    static constexpr Time fwRebootReconcilePerContext = sim::microseconds(2.0);

    // ---- virtual-context oversubscription -------------------------------
    /** Hypervisor entry/decode for a doorbell to a paged-out context. */
    static constexpr Time cxtPageTrap = sim::microseconds(1.2);
    /** Quiesce epoch for the eviction victim (drain in-flight ops). */
    static constexpr Time cxtQuiesce = sim::microseconds(3.0);
    /** DMA the victim's 4 KB SRAM context image out to host memory. */
    static constexpr Time cxtSaveDma = sim::microseconds(4.0);
    /** DMA the saved image back into the freed physical slot. */
    static constexpr Time cxtRestoreDma = sim::microseconds(4.0);

    // ---- software-only passthrough (Kedia & Bansal) ---------------------
    // Guests program real Intel-style descriptor rings; every doorbell
    // traps into the hypervisor, which validates and shadow-copies the
    // descriptors onto the shared single-context NIC.  Costs are per
    // trap / per descriptor so batching (many descriptors per doorbell)
    // amortizes the trap exactly as in the paper this models.
    /** VM exit + decode + re-entry for one trapped doorbell PIO. */
    static constexpr Time swptDoorbellTrap = sim::microseconds(1.0);
    /** Audit one descriptor against the grant table / page owners. */
    static constexpr Time swptValidatePerDesc = sim::nanoseconds(250);
    /** Copy one validated descriptor into the hypervisor shadow ring. */
    static constexpr Time swptShadowCopyPerDesc = sim::nanoseconds(120);
    /** Per-byte software demux copy of a received frame into the
     *  destination guest's posted buffer (same mechanism class as
     *  copy-mode netback, minus the bridge/vif machinery). */
    static constexpr double swptRxCopyPerByteNs = 0.45;

    // ---- background OS load ---------------------------------------------
    /** Periodic timer tick cost per domain. */
    static constexpr Time timerTickCost = sim::microseconds(4.0);
    /** Timer tick frequency per domain (Hz). */
    static constexpr int timerHz = 100;

    // ---- hypervisor + scheduler ------------------------------------------
    /** Settable hypercallOverhead (the protection preset); the rest fixed. */
    vmm::HvParams hv{};
    static constexpr cpu::CpuParams cpuParams{};

    // ---- NIC coalescing ----------------------------------------------------
    static constexpr nic::CoalesceParams intelCoalesce{
        sim::microseconds(120), 48};
    /** CDNA bit-vector windows (tuned per direction, as the paper tuned
     *  "NIC coalescing options" per experiment); the coalesce preset
     *  sweeps the transmit window. */
    Time cdnaCoalesce = sim::microseconds(145);
    static constexpr Time cdnaCoalesceRx = sim::microseconds(268);

    // ---- switch fabric (multi-host topologies; net/eth_switch.hh) -------
    static constexpr Time switchForwardLatency = net::kSwitchForwardLatency;
    static constexpr std::uint64_t switchBufBytesPerPort =
        net::kSwitchBufBytesPerPort;
};

} // namespace cdna::core

#endif // CDNA_CORE_COST_MODEL_HH
