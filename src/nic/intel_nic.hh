/**
 * @file
 * Conventional single-context Gigabit NIC (the paper's Intel Pro/1000
 * MT baseline).
 *
 * One TX and one RX descriptor ring, owned by whichever OS the device
 * is assigned to (native Linux, or Xen's driver domain).  Supports TCP
 * segmentation offload: a TX descriptor may describe up to 64 KB of
 * payload which the NIC cuts into MTU frames on the wire.  The device
 * trusts its driver completely -- the trust relationship CDNA exists to
 * remove (paper section 2.2).
 */

#ifndef CDNA_NIC_INTEL_NIC_HH
#define CDNA_NIC_INTEL_NIC_HH

#include <cstdint>
#include <vector>

#include "nic/desc_ring.hh"
#include "nic/nic_base.hh"
#include "nic/packet_buffer.hh"
#include "sim/fifo.hh"

namespace cdna::nic {

class IntelNic : public NicBase
{
  public:
    /** The device segments TCP: a TX descriptor may carry 64 KB. */
    static constexpr bool kTso = true;

    /** On-NIC packet buffer per direction (256 KB: 2 ms of wire). */
    static constexpr std::uint64_t kTxBufferBytes = 256 * 1024;
    static constexpr std::uint64_t kRxBufferBytes = 256 * 1024;

    IntelNic(sim::SimContext &ctx, std::string name, mem::PciBus &bus,
             mem::PhysMemory &mem, mem::DeviceId dev, net::Fabric &fabric,
             CoalesceParams coalesce = {});

    // --- host/driver configuration -------------------------------------
    void setMac(net::MacAddr mac) { mac_ = mac; }
    net::MacAddr mac() const { return mac_; }
    void setPromiscuous(bool on) { promiscuous_ = on; }

    /** Domain whose memory the device DMAs on behalf of. */
    void setDmaDomain(mem::DomainId dom) { dmaDomain_ = dom; }

    /** Initialize the rings (driver attach time). */
    void configureTxRing(std::uint32_t entries, mem::PhysAddr base);
    void configureRxRing(std::uint32_t entries, mem::PhysAddr base);

    /** Host address the NIC DMA-writes consumer indices to. */
    void setStatusBlockAddr(mem::PhysAddr addr) { statusAddr_ = addr; }

    DescRing &txRing();
    DescRing &rxRing();

    // --- PIO interface ---------------------------------------------------
    /** Driver advertises TX descriptors valid up to @p producer. */
    void pioWriteTxProducer(std::uint32_t producer);
    /** Driver advertises posted RX buffers up to @p producer. */
    void pioWriteRxProducer(std::uint32_t producer);

    // --- host-visible completion state (DMA'd back to host memory) ------
    /** Free-running count of fully transmitted TX descriptors. */
    std::uint32_t txConsumer() const { return tx_.consumer; }
    /** Free-running count of received frames delivered to host memory. */
    std::uint32_t rxConsumer() const { return rx_.consumer; }

    /**
     * Driver pulls delivered frames (called from its IRQ handler), in
     * ring order, appending them to @p out.  Each frame's hostSg is the
     * prefix of the posted RX buffer the NIC wrote it into.
     * @return the number of frames
     */
    std::uint32_t drainRx(sim::Fifo<net::Packet> &out);

    /**
     * Quiesce the TX DMA engine (hypervisor killing the owning
     * domain).  Every outstanding TX descriptor is consumed without
     * touching host memory -- the engine must stop referencing pages
     * the dead domain had mapped -- and in-flight TX continuations are
     * abandoned.  The consumer index skips to the producer so the
     * (surviving or restarted) driver's accounting stays consistent.
     * RX is left running: it lands in device-owned buffer pages and the
     * dead bridge discards it.  Returns the number of packets dropped.
     */
    std::uint64_t quiesceTx();

    // --- stats -----------------------------------------------------------
    std::uint64_t txPackets() const { return nTxPackets_.value(); }
    std::uint64_t rxPackets() const { return nRxPackets_.value(); }

    // --- LinkEndpoint ------------------------------------------------------
    void receiveFrame(net::Packet pkt) override;

  private:
    /** Extra wire dead-time per transmitted packet (MAC pipeline). */
    static constexpr sim::Time kTxInterFrameGap = sim::nanoseconds(80);

    void startTxFetch();
    void pumpTx();
    void startRxFetch();
    void scheduleConsumerWriteback();

    net::MacAddr mac_;
    bool promiscuous_ = false;
    mem::DomainId dmaDomain_ = mem::kDomInvalid;
    mem::PhysAddr statusAddr_ = 0;

    PacketBufferPool txBuf_;
    PacketBufferPool rxBuf_;

    // TX: [used, fetched) wait for the data engine; consumer counts
    // transmitted descriptors.
    DescQueue tx_;
    bool txDataBusy_ = false;
    /** The frame of the one TX data DMA in flight (txDataBusy_). */
    net::Packet txFrame_;
    /** Bumped by quiesceTx(); stale TX continuations early-return. */
    std::uint64_t txEpoch_ = 0;

    // RX: used counts descriptors taken by arriving frames, consumer
    // the deliveries completed to host memory.
    DescQueue rx_;
    /** Frames whose DMA write is in flight, in issue order. */
    sim::Fifo<net::Packet> rxInFlight_;
    std::vector<net::Packet> rxReady_;

    bool writebackBusy_ = false;
    bool writebackAgain_ = false;

    sim::Counter nTxPackets_{stats(), "tx_packets"};
    sim::Counter nTxPayload_{stats(), "tx_payload_bytes"};
    sim::Counter nRxPackets_{stats(), "rx_packets"};
    sim::Counter nRxPayload_{stats(), "rx_payload_bytes"};
    sim::Counter nTxGhost_{stats(), "tx_ghost_descriptors"};
    sim::Counter nTxResetDrops_{stats(), "tx_reset_drops"};
};

} // namespace cdna::nic

#endif // CDNA_NIC_INTEL_NIC_HH
