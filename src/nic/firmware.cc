#include "nic/firmware.hh"

#include <algorithm>
#include <utility>

#include "sim/assert.hh"

namespace cdna::nic {

FirmwareProc::FirmwareProc(sim::SimContext &ctx, std::string name)
    : sim::SimObject(ctx, std::move(name))
{
}

void
FirmwareProc::exec(sim::Time cost, std::function<void()> fn)
{
    SIM_ASSERT(cost >= 0, "negative firmware cost");
    nJobs_.inc();
    sim::Time start = std::max(now(), busyUntil_);
    busyUntil_ = start + cost;
    busyAccum_ += cost;
    CDNA_TRACE_SPAN(ctx().tracer(), traceLane(), "fw_job", start, cost);
    events().scheduleAt(busyUntil_, std::move(fn));
}

void
FirmwareProc::stall(sim::Time duration)
{
    SIM_ASSERT(duration >= 0, "negative firmware stall");
    sim::Time start = std::max(now(), busyUntil_);
    busyUntil_ = start + duration;
    busyAccum_ += duration;
    CDNA_TRACE_SPAN(ctx().tracer(), traceLane(), "fw_stall", start,
                    duration);
}

void
FirmwareProc::reboot(sim::Time down_time)
{
    SIM_ASSERT(down_time >= 0, "negative firmware reboot time");
    ++epoch_;
    // The queued backlog dies with the old image; the new image owns
    // the processor from now until boot completes.
    busyUntil_ = now() + down_time;
    busyAccum_ += down_time;
    CDNA_TRACE_SPAN(ctx().tracer(), traceLane(), "fw_reboot", now(),
                    down_time);
}

double
FirmwareProc::utilization(sim::Time elapsed) const
{
    if (elapsed <= 0)
        return 0.0;
    return static_cast<double>(busyAccum_) / static_cast<double>(elapsed);
}

} // namespace cdna::nic
