/**
 * @file
 * Per-guest availability accounting for failure-domain experiments.
 *
 * The paper's central reliability claim (section 3) is that CDNA
 * shrinks the failure domain of the network path: a driver-domain
 * crash under Xen takes every guest's connectivity down until the
 * domain reboots and the frontends reconnect, while under CDNA each
 * guest owns its context and keeps running.  This tracker turns that
 * claim into numbers: for each guest it records
 *
 *  - downtime: total time, across outages, from the fault to the
 *    guest's first end-to-end progress afterwards -- but only when
 *    that gap exceeds a short grace window, so a guest whose traffic
 *    simply keeps flowing through the fault (a CDNA guest during a
 *    dom0 crash) scores exactly zero;
 *  - time-to-first-packet: the lag between the recovery completing
 *    (backend restarted, firmware reconciled) and the guest actually
 *    moving data again -- the reconnect/resync tail the outage hides.
 *
 * Packets lost to an outage are counted by the netbacks that drop them
 * (the report's outage_packets_lost), not here.  The tracker is only
 * instantiated under a fault plan that schedules an outage, so
 * fault-free runs carry no availability state at all.
 */

#ifndef CDNA_CORE_AVAILABILITY_HH
#define CDNA_CORE_AVAILABILITY_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/sim_object.hh"

namespace cdna::core {

class AvailabilityTracker : public sim::SimObject
{
  public:
    /**
     * Progress gaps at or below this threshold do not count as
     * downtime: normal scheduling jitter around the fault instant must
     * not read as an outage.  Real outages here are >= a driver-domain
     * or firmware reboot (milliseconds), far above the threshold.
     */
    static constexpr sim::Time kGrace = sim::kMillisecond;

    AvailabilityTracker(sim::SimContext &ctx, std::string name,
                        std::uint32_t guests)
        : sim::SimObject(ctx, std::move(name)), per_(guests)
    {
    }

    std::uint32_t guests() const
    {
        return static_cast<std::uint32_t>(per_.size());
    }

    /** A fault that may interrupt @p guest's connectivity fired. */
    void
    noteOutageStart(std::uint32_t guest)
    {
        PerGuest &g = per_.at(guest);
        if (g.inOutage)
            return; // overlapping faults merge into one outage window
        g.inOutage = true;
        g.outageStart = now();
        g.recovered = false;
    }

    /**
     * The recovery mechanism finished for @p guest (backend restarted
     * and frontend reconnected, or firmware reconciled its context).
     * Time-to-first-packet is measured from here.
     */
    void
    noteRecovery(std::uint32_t guest)
    {
        PerGuest &g = per_.at(guest);
        if (!g.inOutage || g.recovered)
            return;
        g.recovered = true;
        g.recoveryAt = now();
    }

    /** End-to-end progress (tx completion or rx delivery) for @p guest. */
    void
    noteProgress(std::uint32_t guest)
    {
        if (guest >= per_.size())
            return;
        PerGuest &g = per_[guest];
        if (!g.inOutage)
            return;
        sim::Time gap = now() - g.outageStart;
        if (gap > kGrace) {
            g.downtime += gap;
            g.ttfp = g.recovered ? now() - g.recoveryAt : gap;
            CDNA_TRACE_INSTANT_ARG(ctx().tracer(), traceLane(),
                                   "guest_recovered", now(), "guest", guest);
        }
        g.inOutage = false;
    }

    /**
     * Accumulated downtime as of now; an outage still open (no
     * progress yet) counts its elapsed span once past the grace window.
     */
    double
    downtimeUs(std::uint32_t guest) const
    {
        const PerGuest &g = per_.at(guest);
        sim::Time t = g.downtime;
        if (g.inOutage && now() - g.outageStart > kGrace)
            t += now() - g.outageStart;
        return sim::toMicroseconds(t);
    }

    /** Last measured recovery-to-first-packet lag (0 = no downtime). */
    double
    ttfpUs(std::uint32_t guest) const
    {
        return sim::toMicroseconds(per_.at(guest).ttfp);
    }

    bool
    anyDowntime() const
    {
        for (std::uint32_t g = 0; g < guests(); ++g)
            if (downtimeUs(g) > 0.0)
                return true;
        return false;
    }

  private:
    struct PerGuest
    {
        bool inOutage = false;
        bool recovered = false;
        sim::Time outageStart = 0;
        sim::Time recoveryAt = 0;
        sim::Time downtime = 0;
        sim::Time ttfp = 0;
    };

    std::vector<PerGuest> per_;
};

} // namespace cdna::core

#endif // CDNA_CORE_AVAILABILITY_HH
