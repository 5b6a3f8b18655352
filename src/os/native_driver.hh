/**
 * @file
 * Native (unmodified-Linux-style) device driver for the IntelNic.
 *
 * Runs either directly in a native OS (Table 1's baseline) or inside
 * Xen's driver domain (sections 2.1-2.2): in the latter case physical
 * interrupts are fielded by the hypervisor and forwarded as virtual
 * interrupts.  The driver trusts and is trusted by the NIC -- it writes
 * raw physical addresses into DMA descriptors with no validation.
 */

#ifndef CDNA_OS_NATIVE_DRIVER_HH
#define CDNA_OS_NATIVE_DRIVER_HH

#include <cstdint>
#include <deque>

#include "nic/intel_nic.hh"
#include "os/net_device.hh"
#include "vmm/hypervisor.hh"

namespace cdna::os {

class NativeDriver : public sim::SimObject, public NetDevice
{
  public:
    /** How the NIC's physical interrupt reaches this driver. */
    enum class IrqRoute
    {
        kDirect,        //!< native OS: IRQ lands on the vCPU directly
        kViaHypervisor, //!< Xen: hypervisor fields it, sends virtual IRQ
    };

    NativeDriver(sim::SimContext &ctx, std::string name, vmm::Domain &dom,
                 nic::IntelNic &nic, IrqRoute route, net::MacAddr mac);

    /** Allocate rings/buffers and bring the device up. */
    void attach();

    // --- NetDevice ------------------------------------------------------
    bool canTransmit() const override;
    net::MacAddr mac() const override { return mac_; }
    bool tsoCapable() const override { return nic::IntelNic::kTso; }

    /** Push queued transmits to the NIC (end of a stack burst). */
    void flush() override;

    void setAutoRefill(bool on) override { autoRefill_ = on; }
    void refillRx(mem::PageNum page) override;

    vmm::Domain &domain() { return dom_; }
    nic::IntelNic &nic() { return nic_; }

  private:
    void onIrq();
    void handleIrq();
    void doFlush(std::uint32_t n);
    void postRxBuffer(mem::PageNum page);
    void flushRxProducer();

    vmm::Domain &dom_;
    nic::IntelNic &nic_;
    IrqRoute route_;
    net::MacAddr mac_;
    vmm::EventChannel *irqChannel_ = nullptr;

    // TX: the qdisc is the NetDevice stage, up to kQdiscLimit packets.
    static constexpr std::size_t kQdiscLimit = 512;
    bool flushPending_ = false;
    std::uint32_t txProducer_ = 0;
    std::uint32_t txDrained_ = 0; //!< completions already surfaced
    std::deque<std::uint64_t> txInflightBytes_;

    // RX
    std::uint32_t rxProducer_ = 0;
    bool autoRefill_ = true;
    bool rxPioPending_ = false;

    bool irqTaskPending_ = false;

    sim::Counter nTxPkts_{stats(), "tx_packets"};
    sim::Counter nRxPkts_{stats(), "rx_packets"};
    sim::Counter nIrqsHandled_{stats(), "irqs_handled"};
};

} // namespace cdna::os

#endif // CDNA_OS_NATIVE_DRIVER_HH
