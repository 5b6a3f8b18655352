#include "nic/desc_ring.hh"

#include <algorithm>
#include <utility>

#include "sim/assert.hh"

namespace cdna::nic {

DescRing::DescRing(std::uint32_t entries, mem::PhysAddr base)
    : base_(base), slots_(entries)
{
    SIM_ASSERT(entries > 0, "empty descriptor ring");
    // Indices are free-running uint32 counters that eventually wrap.
    // pos % size() only maps wrapped positions consistently when size
    // divides 2^32, so ring sizes must be powers of two -- otherwise
    // the slot for position 0 and position 2^32 would differ.
    SIM_ASSERT((entries & (entries - 1)) == 0,
               "descriptor ring size must be a power of two");
}

mem::SgList
DescRing::fetchSg(std::uint32_t first, std::uint32_t count) const
{
    std::uint32_t till_wrap = std::min(count, size() - slotOf(first));
    auto slot_addr = [this](std::uint32_t pos) {
        return base_ + static_cast<mem::PhysAddr>(slotOf(pos)) * kDescBytes;
    };
    mem::SgList sg{{slot_addr(first), till_wrap * kDescBytes}};
    if (till_wrap < count)
        sg.push_back(
            {slot_addr(first + till_wrap), (count - till_wrap) * kDescBytes});
    return sg;
}

void
DescRing::write(std::uint32_t pos, DmaDescriptor d)
{
    slots_[slotOf(pos)] = std::move(d);
}

const DmaDescriptor &
DescRing::at(std::uint32_t pos) const
{
    return slots_[pos % size()];
}

void
DescRing::attachPacket(std::uint32_t pos, net::Packet pkt)
{
    // Only TX rings carry payloads: build their slots on first use.
    if (packets_.empty())
        packets_.resize(size());
    packets_[slotOf(pos)] = std::move(pkt);
}

std::optional<net::Packet>
DescRing::detachPacket(std::uint32_t pos)
{
    if (packets_.empty())
        return std::nullopt;
    auto &slot = packets_[slotOf(pos)];
    std::optional<net::Packet> out = std::move(slot);
    slot.reset();
    return out;
}

bool
DescRing::hasPacket(std::uint32_t pos) const
{
    return !packets_.empty() && packets_[pos % size()].has_value();
}

std::optional<DescFetch>
DescQueue::beginFetch()
{
    if (fetchBusy || !ring || producer == fetched)
        return std::nullopt;
    fetchBusy = true;
    std::uint32_t n =
        std::min({producer - fetched, kFetchBatch, ring->size()});
    return DescFetch{fetched, n, ring->fetchSg(fetched, n)};
}

} // namespace cdna::nic
