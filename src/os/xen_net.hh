/**
 * @file
 * Xen's software I/O virtualization path (paper sections 2.1-2.2).
 *
 * DriverDomainNet composes, per physical NIC: the native driver bound
 * to the NIC, the software Ethernet bridge, and one XenVif (front-end /
 * back-end pair) per guest.  The data paths follow the paper exactly:
 *
 *  TX: guest stack -> frontend (grant pages, put request, event-channel
 *      notify) -> backend (map grants, bridge lookup) -> native driver
 *      -> NIC; completions unwind through the driver domain, ending in
 *      a TX response and a virtual interrupt to the guest.
 *
 *  RX: NIC -> native driver (driver-domain buffer) -> bridge demux by
 *      MAC -> backend page-flips the packet page to the guest in
 *      exchange for a posted guest page -> RX response + virtual
 *      interrupt -> frontend -> guest stack.
 *
 * Every hypervisor-mediated step (grant map/unmap, page flip,
 * event-channel send) charges hypervisor time; every driver-domain step
 * charges driver-domain OS time.  That split is what the paper's
 * execution profiles measure.
 */

#ifndef CDNA_OS_XEN_NET_HH
#define CDNA_OS_XEN_NET_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "os/net_device.hh"
#include "sim/fifo.hh"
#include "vmm/hypervisor.hh"

namespace cdna::os {

class DriverDomainNet;

/**
 * One paravirtual network interface: the guest-side front-end (a
 * NetDevice the guest's stack drives) plus the driver-domain-side
 * back-end state.
 */
class XenVif : public sim::SimObject, public NetDevice
{
  public:
    XenVif(sim::SimContext &ctx, std::string name, DriverDomainNet &ddn,
           vmm::Domain &guest, net::MacAddr mac);

    // --- NetDevice (front-end, guest side) -------------------------------
    bool canTransmit() const override;
    void flush() override;
    net::MacAddr mac() const override { return mac_; }
    bool tsoCapable() const override;

    vmm::Domain &guest() { return guest_; }

    /** Shared-ring capacity (slots) in each direction. */
    static constexpr std::uint32_t kRingSlots = 256;

    /**
     * Arm the dead-backend watchdog (frontend reconnection protocol).
     * Only called when a fault plan schedules a driver-domain crash,
     * so fault-free runs execute the exact pre-fault event sequence.
     *
     * The watchdog polls the backend every feWatchdogPeriod (modeling
     * the event-channel/Xenstore timeout a real netfront uses).  On a
     * dead backend the frontend enters kWaitingReconnect and retries
     * with exponential backoff until the restarted backend answers,
     * then renegotiates: reclaims grants orphaned by the crash,
     * resets the TX ring accounting, reposts its RX buffers, and
     * resumes transmission (TCP retransmits the lost window; the
     * open-loop app window is reopened by a counted-loss completion).
     */
    void enableReconnect();

    /** Fires when a reconnection completes (availability tracking). */
    void setReconnectedHook(std::function<void()> fn)
    {
        onReconnected_ = std::move(fn);
    }

    /** RX packets dropped because the backend was down. */
    std::uint64_t outageRxDrops() const { return nOutageDrops_.value(); }
    /** TX packets orphaned inside the crashed driver domain. */
    std::uint64_t txLostCrash() const { return nLostTx_.value(); }

  private:
    friend class DriverDomainNet;

    struct TxRequest
    {
        net::Packet pkt;
        std::vector<mem::GrantRef> grants;
    };

    /** Completion record flowing back to the guest. */
    struct TxResponse
    {
        std::uint64_t bytes;
        std::vector<mem::GrantRef> grants;
    };

    /** Driver-domain-side record of an in-flight transmit. */
    struct TxMeta
    {
        std::vector<mem::GrantRef> grants;
        std::uint64_t bytes;
    };

    /** Front-end: consume TX responses + RX packets (one channel). */
    void frontendIrq();
    /** Back-end: consume TX requests from the shared ring. */
    void backendIrq();
    /** Post guest pages for reception. */
    void postRxBuffers();
    void armFeWatchdog();
    void feWatchdogFire();
    void scheduleReconnectAttempt();
    void attemptReconnect();
    void completeReconnect();
    DriverDomainNet &ddn_;
    vmm::Domain &guest_;
    net::MacAddr mac_;

    // Shared rings (request/response queues between the domains).
    sim::Fifo<TxRequest> txReq_;
    sim::Fifo<TxResponse> txResp_;
    sim::Fifo<mem::PageNum> rxReq_; //!< guest pages posted for RX
    sim::Fifo<net::Packet> rxResp_; //!< flipped-in packets

    std::uint32_t txOutstanding_ = 0; //!< requests not yet responded
    bool feFlushPending_ = false;

    sim::Fifo<mem::PageNum> guestFreePages_;

    // Per-vif staging of bridge-demuxed packets (driver-domain side).
    std::vector<net::Packet> rxStage_;

    vmm::EventChannel *feChannel_ = nullptr; //!< notifies the guest
    vmm::EventChannel *beChannel_ = nullptr; //!< notifies the driver dom

    // Frontend reconnection state machine (see enableReconnect()).
    enum class FeState
    {
        kConnected,
        kWaitingReconnect,
    };
    FeState feState_ = FeState::kConnected;
    bool feWatchdogArmed_ = false;
    sim::Time reconnectBackoff_ = 0;
    std::vector<mem::GrantRef> orphanGrants_; //!< left by a backend crash
    std::uint64_t orphanTxBytes_ = 0;
    std::function<void()> onReconnected_;

    sim::Counter nTxPkts_{stats(), "tx_packets"};
    sim::Counter nRxPkts_{stats(), "rx_packets"};
    sim::Counter nRxDropNoBuf_{stats(), "rx_drop_no_buffer"};
    sim::Counter nOutageDrops_{stats(), "rx_outage_drops"};
    sim::Counter nLostTx_{stats(), "tx_lost_crash"};
};

/**
 * The driver domain's networking for one physical NIC: native driver +
 * bridge + all backends.
 */
class DriverDomainNet : public sim::SimObject
{
  public:
    /**
     * @param phys the physical NetDevice (a NativeDriver on an IntelNic,
     *             or a CdnaGuestDriver on a CDNA NIC context assigned to
     *             the driver domain -- the paper's Xen/RiceNIC rows)
     */
    DriverDomainNet(sim::SimContext &ctx, std::string name,
                    vmm::Domain &driver_dom, NetDevice &phys);

    /** Create the vif for @p guest with MAC @p mac on this bridge. */
    XenVif &createVif(vmm::Domain &guest, net::MacAddr mac);

    vmm::Domain &driverDomain() { return drvDom_; }
    NetDevice &phys() { return phys_; }
    vmm::Hypervisor &hv() { return drvDom_.hypervisor(); }

    /**
     * Receive-path mechanism: page flipping (the paper's Xen 3, the
     * default) or copying into the guest's posted page (the mechanism
     * that later replaced flipping).  Copy mode trades a per-byte
     * driver-domain memcpy for the flip hypercall and its TLB costs.
     */
    void setRxCopyMode(bool on) { rxCopyMode_ = on; }

    /**
     * The driver domain crashed (fault injection): the backend stops
     * answering, every in-flight TX is orphaned (grants recorded for
     * the frontends to reclaim at reconnect), staged RX is dropped
     * with its NIC buffer pages recycled, and until restart() every
     * packet the physical driver delivers is dropped and counted.
     * Grant mappings held by the dead domain are revoked separately by
     * the hypervisor (System::killDriverDomain).
     */
    void crash();
    /** The rebooted driver domain is back; frontends reconnect. */
    void restart();
    bool backendUp() const { return backendUp_; }

    /** All vifs on this bridge (recovery wiring, availability). */
    const std::vector<std::unique_ptr<XenVif>> &vifs() const
    {
        return vifs_;
    }

    /** Total RX packets dropped while the backend was down. */
    std::uint64_t outageRxDrops() const { return nOutageDrops_.value(); }

  private:
    friend class XenVif;

    /** Backend hands a packet to the bridge toward the wire. */
    void bridgeTx(XenVif &vif, XenVif::TxRequest req);
    /**
     * The backend died holding @p meta: leave its grants and bytes for
     * @p vif to reclaim when it reconnects.
     */
    void orphanTx(XenVif &vif, const XenVif::TxMeta &meta);
    /** Physical driver delivered a packet; demux to a vif. */
    void onPhysRx(net::Packet pkt);
    /**
     * Drop a frame the bridge cannot deliver to @p vif (null: no vif
     * has its MAC) and repost its NIC buffer page.  A frame for an
     * unknown MAC while the backend is up counts as bridge_no_vif;
     * any other is lost to an outage (backend down, frontend not
     * reconnected) and counted against the bridge and @p vif.
     */
    void dropRx(const net::Packet &pkt, XenVif *vif);
    /** The backend died before servicing @p touched's staged RX. */
    void dropStagedRx(const std::vector<XenVif *> &touched);
    void onPhysTxComplete(std::uint64_t bytes);
    void scheduleRxCollect();
    void collectRx();
    void scheduleTxCompleteCollect();
    void collectTxComplete();

    vmm::Domain &drvDom_;
    NetDevice &phys_;

    std::vector<std::unique_ptr<XenVif>> vifs_;
    net::MacTable<XenVif *> macTable_;

    /** FIFO metadata matching the physical driver's TX completions. */
    sim::Fifo<std::pair<XenVif *, XenVif::TxMeta>> txMeta_;

    std::vector<XenVif *> rxTouched_;
    bool rxCollectPending_ = false;
    bool rxCopyMode_ = false;

    /** Completions staged until the batch-collect task runs. */
    std::vector<std::pair<XenVif *, XenVif::TxMeta>> txCompStage_;
    bool txCompCollectPending_ = false;
    bool backendUp_ = true;

    sim::Counter nNoVif_{stats(), "bridge_no_vif"};
    sim::Counter nBridgePkts_{stats(), "bridge_packets"};
    sim::Counter nOutageDrops_{stats(), "outage_rx_drops"};
};

} // namespace cdna::os

#endif // CDNA_OS_XEN_NET_HH
