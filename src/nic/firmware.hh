/**
 * @file
 * Embedded NIC processor service model.
 *
 * The RiceNIC runs its datapath on one 300 MHz PowerPC (paper section
 * 4: one of the two embedded processors suffices to saturate the
 * link).  Firmware work -- decoding mailbox events, fetching and
 * validating descriptors, programming DMA, multiplexing contexts -- is
 * modeled as serially-executed jobs with per-operation costs, so a
 * saturated firmware processor becomes a visible bottleneck instead of
 * an invisible assumption.
 */

#ifndef CDNA_NIC_FIRMWARE_HH
#define CDNA_NIC_FIRMWARE_HH

#include <cstdint>
#include <functional>

#include "sim/sim_object.hh"

namespace cdna::nic {

/** One embedded processor executing firmware jobs FIFO. */
class FirmwareProc : public sim::SimObject
{
  public:
    FirmwareProc(sim::SimContext &ctx, std::string name);

    /**
     * Execute a firmware job costing @p cost processor time; @p fn runs
     * at completion.  Jobs queue when the processor is busy.
     */
    void exec(sim::Time cost, std::function<void()> fn);

    /**
     * Wedge the processor for @p duration (fault injection): queued and
     * newly submitted jobs execute only after the stall ends.
     */
    void stall(sim::Time duration);

    /**
     * Power-cycle the processor: unlike stall(), the running firmware
     * image dies.  The epoch advances so continuations of jobs that
     * were in flight can detect they belong to the dead image and must
     * not touch post-reboot state; the processor is then busy for
     * @p down_time while the new image boots.
     */
    void reboot(sim::Time down_time);

    /** Firmware image generation; bumped by reboot(). */
    std::uint64_t epoch() const { return epoch_; }

    /** Fraction of elapsed time the processor has been busy. */
    double utilization(sim::Time elapsed) const;

    /** Cumulative busy time (observability gauges take deltas of this). */
    sim::Time busyTime() const { return busyAccum_; }

    std::uint64_t jobsRun() const { return nJobs_.value(); }

  private:
    sim::Time busyUntil_ = 0;
    sim::Time busyAccum_ = 0;
    std::uint64_t epoch_ = 0;
    sim::Counter nJobs_{stats(), "jobs"};
};

} // namespace cdna::nic

#endif // CDNA_NIC_FIRMWARE_HH
