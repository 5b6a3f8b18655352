#include "mem/pci_bus.hh"

#include <algorithm>
#include <utility>

namespace cdna::mem {

namespace {

/** Bus time one transaction of @p bytes occupies. */
sim::Time
costOf(std::uint64_t bytes)
{
    return kPciSetup +
           static_cast<sim::Time>(kPciPsPerByte * static_cast<double>(bytes));
}

} // namespace

PciBus::PciBus(sim::SimContext &ctx, std::string name)
    : sim::SimObject(ctx, std::move(name))
{
}

sim::Time
PciBus::estimate(std::uint64_t bytes) const
{
    sim::Time start = std::max(now(), busyUntil_);
    return start + costOf(bytes);
}

sim::Time
PciBus::transfer(std::uint64_t bytes, sim::InplaceCallback done)
{
    nTransfers_.inc();
    nBytes_.inc(bytes);
    sim::Time start = std::max(now(), busyUntil_);
    sim::Time cost = costOf(bytes);
    busyUntil_ = start + cost;
    busyAccum_ += cost;
    CDNA_TRACE_SPAN_ARG(ctx().tracer(), traceLane(), "dma", start, cost,
                        "bytes", bytes);
    events().scheduleAt(busyUntil_, std::move(done));
    return busyUntil_;
}

double
PciBus::utilization(sim::Time elapsed) const
{
    if (elapsed <= 0)
        return 0.0;
    return static_cast<double>(busyAccum_) / static_cast<double>(elapsed);
}

} // namespace cdna::mem
