/**
 * @file
 * Producer/consumer descriptor rings in host memory (paper section 2.2).
 *
 * The ring models the *contents* of the host-memory descriptor array:
 * slots persist until overwritten, so a stale descriptor from a
 * previous lap is still there when a malicious driver bumps the
 * producer index past the last valid entry -- the attack CDNA's
 * sequence numbers catch.
 *
 * Indices are free-running 32-bit counters; the slot for index i is
 * i % size().  The NIC fetches slot contents via DMA before using them;
 * timing is charged by the caller, this class only holds state.
 *
 * Each slot can carry an attached Packet: the simulation's stand-in for
 * the payload bytes a real buffer would hold.
 *
 * DescQueue is the device's side of one ring -- its free-running
 * producer, fetched, used and consumer indices and the descriptor-fetch
 * DMA -- shared by both directions of both NIC models.  [used, fetched)
 * are the descriptors fetched but not yet handed to the datapath.
 */

#ifndef CDNA_NIC_DESC_RING_HH
#define CDNA_NIC_DESC_RING_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "mem/phys_memory.hh"
#include "net/packet.hh"
#include "nic/descriptor.hh"

namespace cdna::nic {

class DescRing
{
  public:
    /**
     * @param entries ring size; must be a power of two so that the
     *                free-running uint32 indices map to consistent
     *                slots across wraparound (i % size == (i + 2^32) %
     *                size only when size divides 2^32)
     * @param base    host physical address of slot 0
     */
    DescRing(std::uint32_t entries, mem::PhysAddr base);

    std::uint32_t size() const { return static_cast<std::uint32_t>(slots_.size()); }

    /** Slot index for a free-running position. */
    std::uint32_t slotOf(std::uint32_t pos) const { return pos % size(); }

    /**
     * The descriptor-fetch DMA of the @p count slots from position
     * @p first (at most one lap), split where the ring wraps.
     */
    mem::SgList fetchSg(std::uint32_t first, std::uint32_t count) const;

    /** Write a descriptor into the slot for @p pos (host side). */
    void write(std::uint32_t pos, DmaDescriptor d);

    /** Read the slot contents for @p pos (NIC side, post-DMA). */
    const DmaDescriptor &at(std::uint32_t pos) const;

    /** Attach the simulated payload for the packet described at @p pos. */
    void attachPacket(std::uint32_t pos, net::Packet pkt);

    /** Detach (consume) the payload attached at @p pos, if any. */
    std::optional<net::Packet> detachPacket(std::uint32_t pos);

    /** True if a payload is attached at @p pos. */
    bool hasPacket(std::uint32_t pos) const;

  private:
    mem::PhysAddr base_;
    std::vector<DmaDescriptor> slots_;
    /** Payload per slot; empty until the first attachPacket(). */
    std::vector<std::optional<net::Packet>> packets_;
};

/** One descriptor-fetch DMA: ring positions [first, first + count). */
struct DescFetch
{
    std::uint32_t first = 0;
    std::uint32_t count = 0;
    mem::SgList sg;
};

/** Largest descriptor batch either NIC model fetches in one DMA. */
inline constexpr std::uint32_t kFetchBatch = 64;

/** The device's cursor over one descriptor ring. */
struct DescQueue
{
    std::optional<DescRing> ring; //!< installed by the driver
    std::uint32_t producer = 0;   //!< advertised by the driver
    std::uint32_t fetched = 0;    //!< fetched from host memory
    std::uint32_t used = 0;       //!< handed to the datapath
    std::uint32_t consumer = 0;   //!< completed
    bool fetchBusy = false;       //!< a descriptor fetch is in flight

    /**
     * Claim the next descriptor fetch: up to kFetchBatch advertised
     * descriptors, never more than one ring lap.  Sets fetchBusy; the
     * caller advances fetched and clears it when the DMA lands.  No
     * value when there is no ring, a fetch is in flight, or nothing new
     * is advertised.
     */
    std::optional<DescFetch> beginFetch();
};

} // namespace cdna::nic

#endif // CDNA_NIC_DESC_RING_HH
