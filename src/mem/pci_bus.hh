/**
 * @file
 * Shared PCI bus bandwidth/latency model.
 *
 * The paper's testbed put the NICs on a 64-bit/66 MHz PCI bus
 * (~528 MB/s peak).  We model the bus as a serially-reused resource:
 * each transaction pays a fixed arbitration/setup latency plus a
 * per-byte serialization time, and transactions queue FIFO when the bus
 * is busy.  This keeps descriptor fetches and payload DMA honest about
 * sharing one physical resource.
 */

#ifndef CDNA_MEM_PCI_BUS_HH
#define CDNA_MEM_PCI_BUS_HH

#include <cstdint>

#include "sim/sim_object.hh"

namespace cdna::mem {

/** Picoseconds per byte at the sustained 528 MB/s of PCI64/66. */
inline constexpr double kPciPsPerByte =
    static_cast<double>(sim::kSecond) / 528.0e6;
/** Per-transaction arbitration/setup latency. */
inline constexpr sim::Time kPciSetup = sim::nanoseconds(120);

/** FIFO-arbitrated shared bus with fixed setup cost + per-byte cost. */
class PciBus : public sim::SimObject
{
  public:
    PciBus(sim::SimContext &ctx, std::string name);

    /**
     * Enqueue a transfer of @p bytes; @p done fires when the last byte
     * has crossed the bus.
     * @return the simulated completion time
     */
    sim::Time transfer(std::uint64_t bytes, sim::InplaceCallback done);

    /** Completion time a transfer of @p bytes would get if issued now. */
    sim::Time estimate(std::uint64_t bytes) const;

    /** Total bytes carried. */
    std::uint64_t bytesCarried() const { return nBytes_.value(); }

    /** Fraction of elapsed time the bus has been busy. */
    double utilization(sim::Time elapsed) const;

  private:
    sim::Time busyUntil_ = 0;
    sim::Time busyAccum_ = 0;

    sim::Counter nTransfers_{stats(), "transfers"};
    sim::Counter nBytes_{stats(), "bytes"};
};

} // namespace cdna::mem

#endif // CDNA_MEM_PCI_BUS_HH
