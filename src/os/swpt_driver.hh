/**
 * @file
 * Guest-side driver for the software-only passthrough architecture.
 *
 * The guest sees (what it believes is) the real Intel device: it
 * writes Intel-style DMA descriptors into rings in its own memory and
 * rings the doorbell.  The doorbell PIO traps into the hypervisor's
 * SwptValidator, which audits and shadow-copies the descriptors onto
 * the shared physical NIC.  Unlike the Xen frontend there is no grant
 * negotiation and no driver-domain copy on TX -- payload pages go to
 * the device zero-copy once validated -- and unlike the CDNA driver
 * there is no per-guest hardware context: every doorbell is a trap.
 */

#ifndef CDNA_OS_SWPT_DRIVER_HH
#define CDNA_OS_SWPT_DRIVER_HH

#include <cstdint>
#include <vector>

#include "os/net_device.hh"
#include "sim/fifo.hh"
#include "vmm/swpt_validator.hh"

namespace cdna::os {

class SwptDriver : public sim::SimObject, public NetDevice
{
  public:
    SwptDriver(sim::SimContext &ctx, std::string name, vmm::Domain &dom,
               vmm::SwptValidator &validator, net::MacAddr mac);

    /** Register with the validator, allocate rings and RX buffers. */
    void attach();

    /** Guest killed: drop staged TX and detach the validator port. */
    void detach();

    // --- NetDevice ------------------------------------------------------
    bool canTransmit() const override;
    net::MacAddr mac() const override { return mac_; }
    bool tsoCapable() const override { return nic::IntelNic::kTso; }
    void flush() override;

    vmm::Domain &domain() { return dom_; }
    vmm::SwptValidator &validator() { return validator_; }
    bool detached() const { return detached_; }

  private:
    void handleIrq();
    void doFlush(std::uint32_t n);

    /** Descriptors a guest keeps outstanding before it must wait for
     *  completions; bounds its share of the shared shadow queue. */
    static constexpr std::uint32_t kTxWindow = 64;
    static constexpr std::uint32_t kRxBufs = 256;

    vmm::Domain &dom_;
    vmm::SwptValidator &validator_;
    net::MacAddr mac_;
    vmm::SwptValidator::GuestId gid_ = 0;
    bool detached_ = false;

    // TX: the qdisc is the NetDevice stage, up to kQdiscLimit packets.
    static constexpr std::size_t kQdiscLimit = 512;
    bool flushPending_ = false;
    std::uint32_t txPosted_ = 0;
    std::uint32_t txCompleted_ = 0;

    // Taken by IRQ handlers whose tasks have not run yet; the vCPU runs
    // those tasks in posting order, so each takes its own handler's.
    sim::Fifo<std::uint64_t> compTaken_; //!< completion bytes (0: error)
    sim::Fifo<net::Packet> rxTaken_;
    std::vector<mem::PageNum> recycle_; //!< RX pages to re-post

    sim::Counter nTxPkts_{stats(), "tx_packets"};
    sim::Counter nRxPkts_{stats(), "rx_packets"};
    sim::Counter nIrqsHandled_{stats(), "irqs_handled"};
};

} // namespace cdna::os

#endif // CDNA_OS_SWPT_DRIVER_HH
