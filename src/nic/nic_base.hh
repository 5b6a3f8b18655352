/**
 * @file
 * Common machinery for simulated network interfaces.
 *
 * A NIC terminates one Ethernet link, owns a DMA engine on the PCI
 * bus, and raises a physical interrupt line that the hypervisor (or
 * native OS) fields.  Interrupt coalescing -- "NIC coalescing options
 * were tuned" in the paper's setup -- is modeled with a delay window
 * plus a frame-count threshold, which is what drives the interrupt-rate
 * columns of Tables 2 and 3.
 */

#ifndef CDNA_NIC_NIC_BASE_HH
#define CDNA_NIC_NIC_BASE_HH

#include <cstdint>
#include <functional>

#include "mem/dma_engine.hh"
#include "net/fabric.hh"
#include "sim/sim_object.hh"

namespace cdna::nic {

/** Interrupt-coalescing configuration. */
struct CoalesceParams
{
    /** Max time a completion may wait before an interrupt fires. */
    sim::Time delay = sim::microseconds(70);
    /** Fire immediately once this many events are pending. */
    std::uint32_t eventThreshold = 64;
};

class NicBase : public sim::SimObject, public net::LinkEndpoint
{
  public:
    NicBase(sim::SimContext &ctx, std::string name, mem::PciBus &bus,
            mem::PhysMemory &mem, mem::DeviceId dev, net::Fabric &fabric);

    /** The fabric port this NIC is bound to. */
    net::Port &port() { return port_; }
    const net::Port &port() const { return port_; }

    /** Install the physical interrupt line (wired by the hypervisor). */
    void setIrqLine(std::function<void()> fn) { irq_ = std::move(fn); }

    mem::DeviceId deviceId() const { return dma_.deviceId(); }
    mem::DmaEngine &dma() { return dma_; }

    void setCoalesce(CoalesceParams p) { coalesce_ = p; }
    const CoalesceParams &coalesce() const { return coalesce_; }

    /** Physical interrupts raised. */
    std::uint64_t irqCount() const { return nIrqs_.value(); }

    /** Frames dropped for lack of a posted receive descriptor. */
    std::uint64_t rxDropNoDesc() const { return nRxDropNoDesc_.value(); }
    /** Frames dropped for lack of NIC buffer space. */
    std::uint64_t rxDropNoBuf() const { return nRxDropNoBuf_.value(); }
    /** Frames dropped by MAC filtering. */
    std::uint64_t rxDropFilter() const { return nRxDropFilter_.value(); }

  protected:
    /**
     * Note a host-visible completion event; a physical interrupt fires
     * when the coalescing window closes (or the threshold is hit).
     */
    void notePendingEvent();

    /** Immediately raise the physical interrupt line. */
    void raiseIrq();

    net::Port &port_;
    mem::DmaEngine dma_;

    sim::Counter nIrqs_{stats(), "irqs"};
    sim::Counter nRxDropNoDesc_{stats(), "rx_drop_no_desc"};
    sim::Counter nRxDropNoBuf_{stats(), "rx_drop_no_buf"};
    sim::Counter nRxDropFilter_{stats(), "rx_drop_filter"};

  private:
    std::function<void()> irq_;
    CoalesceParams coalesce_;
    std::uint32_t pendingEvents_ = 0;
    sim::EventId coalesceTimer_ = sim::kInvalidEvent;
};

} // namespace cdna::nic

#endif // CDNA_NIC_NIC_BASE_HH
