#include "sim/fault_injector.hh"

#include <iterator>
#include <utility>

#include "sim/trace.hh"

namespace cdna::sim {

namespace {

/** Each event's counter name and trace-instant name, in FaultEvent order. */
constexpr std::pair<const char *, const char *> kLedger[] = {
    {"frames_dropped", "frame_drop"},
    {"frames_corrupted", "frame_corrupt"},
    {"frames_duplicated", "frame_dup"},
    {"dma_delays", "dma_delay"},
    {"firmware_stalls", "firmware_stall"},
    {"firmware_resets", "firmware_reset"},
    {"guest_kills", "guest_kill"},
    {"mailbox_timeouts", "mailbox_timeout"},
    {"ring_resyncs", "ring_resync"},
    {"driver_domain_kills", "driver_domain_kill"},
    {"driver_domain_restarts", "driver_domain_restart"},
    {"firmware_reboots", "firmware_reboot"},
    {"frontend_reconnects", "frontend_reconnect"},
};
static_assert(std::size(kLedger) == kNumFaultEvents);

} // namespace

FaultInjector::FaultInjector(SimContext &ctx, std::string name,
                             std::uint64_t system_seed, FaultRates rates)
    : SimObject(ctx, std::move(name)),
      rates_(rates),
      rng_(faultStreamSeed(system_seed))
{
    for (std::size_t i = 0; i < kNumFaultEvents; ++i)
        stats().add(kLedger[i].first, counters_[i]);
}

void
FaultInjector::note(FaultEvent e)
{
    auto i = static_cast<std::size_t>(e);
    counters_[i].inc();
    CDNA_TRACE_INSTANT(ctx().tracer(), traceLane(), kLedger[i].second,
                       now());
}

FaultInjector::FrameFault
FaultInjector::frameFault()
{
    if (!rates_.framesArmed())
        return FrameFault::kNone;
    // One draw decides the frame's fate; the sub-ranges partition [0,1).
    double u = rng_.uniform();
    if (u < rates_.frameDrop) {
        note(FaultEvent::kFrameDrop);
        return FrameFault::kDrop;
    }
    u -= rates_.frameDrop;
    if (u < rates_.frameCorrupt) {
        note(FaultEvent::kFrameCorrupt);
        return FrameFault::kCorrupt;
    }
    u -= rates_.frameCorrupt;
    if (u < rates_.frameDuplicate) {
        note(FaultEvent::kFrameDuplicate);
        return FrameFault::kDuplicate;
    }
    return FrameFault::kNone;
}

Time
FaultInjector::dmaDelay()
{
    if (!rates_.dmaArmed() || !rng_.chance(rates_.dmaDelayChance))
        return 0;
    note(FaultEvent::kDmaDelay);
    return rates_.dmaDelay;
}

} // namespace cdna::sim
