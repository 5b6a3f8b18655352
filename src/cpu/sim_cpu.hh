/**
 * @file
 * Single-core CPU execution model with virtual CPUs.
 *
 * All simulated software runs here.  Work is expressed as Tasks (a cost
 * in simulated time, an accounting bucket, and a completion callback)
 * posted to a Vcpu; the hypervisor's own work (hypercalls, interrupt
 * dispatch, domain switches) runs at higher priority through
 * runHypervisor().  A boost-on-wake round-robin scheduler approximates
 * Xen's credit scheduler in the I/O-bound regime the paper measures.
 *
 * Two costs make multi-guest scaling behave like the real machine
 * (paper figures 3-4): a per-domain-switch hypervisor cost, and a
 * cold-cache surcharge added to the first task a domain runs after
 * being switched in.
 */

#ifndef CDNA_CPU_SIM_CPU_HH
#define CDNA_CPU_SIM_CPU_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cpu/exec_profile.hh"
#include "mem/phys_memory.hh"
#include "sim/sim_object.hh"

namespace cdna::cpu {

class SimCpu;

/** Scheduling parameters of the CPU model. */
struct CpuParams
{
    /** Hypervisor cost of switching the CPU between domains. */
    sim::Time domainSwitchCost = sim::microseconds(0.9);
    /**
     * Cold-cache/TLB surcharge added to the first task a domain runs
     * after being switched in (models the cache pollution the paper's
     * scalability curves reflect).
     */
    sim::Time cacheColdSurcharge = sim::microseconds(1.4);
    /** Round-robin slice before a busy vCPU is rotated. */
    sim::Time slice = sim::milliseconds(30);
    /**
     * Cache/TLB contention between guest working sets: with n guest
     * vCPUs active within contentionWindow, every domain task costs
     * (1 + alpha * (1 - 1/n)) times its base cost.  Calibrated against
     * the paper's figures 3-4: it is what makes Xen's aggregate
     * bandwidth fall and CDNA's idle time vanish as guests are added,
     * while single-guest (n = 1) results are unaffected.
     */
    double cacheContentionAlpha = 0.90;
    sim::Time contentionWindow = sim::milliseconds(30);
    /**
     * Anti-starvation (the fairness half of Xen's credit scheduler):
     * after this many consecutive boosted dispatches, the oldest
     * non-boosted runnable vCPU gets the CPU even if boosted work is
     * pending.
     */
    std::uint32_t boostStreakLimit = 12;
};

/**
 * A virtual CPU belonging to one domain.
 *
 * Tasks run in FIFO order; interrupt-context tasks (postIrq) run before
 * process-context tasks and wake the vCPU with scheduler boost.
 */
class Vcpu
{
  public:
    Vcpu(SimCpu &cpu, mem::DomainId dom, std::string name);

    Vcpu(const Vcpu &) = delete;
    Vcpu &operator=(const Vcpu &) = delete;

    /** Post process-context work (application / kernel thread). */
    void post(Bucket bucket, sim::Time cost,
              std::function<void()> done = {});

    /** Post interrupt-context work; wakes the vCPU with boost. */
    void postIrq(Bucket bucket, sim::Time cost,
                 std::function<void()> done = {});

    mem::DomainId domain() const { return dom_; }
    const std::string &name() const { return name_; }

    /** Whether this vCPU's working set contends for the cache (guests). */
    void setContends(bool on) { contends_ = on; }
    bool contends() const { return contends_; }

    /** True when no work is queued (the vCPU would block). */
    bool idle() const { return irqQ_.empty() && normalQ_.empty(); }

  private:
    friend class SimCpu;

    struct Task
    {
        Bucket bucket;
        sim::Time cost;
        std::function<void()> done;
    };

    enum class State { kBlocked, kRunnable, kRunning };

    SimCpu &cpu_;
    mem::DomainId dom_;
    std::string name_;
    sim::Tracer::LaneId traceLane_ = 0;
    bool contends_ = false;
    sim::Time lastRan_ = std::numeric_limits<sim::Time>::min() / 2;
    State state_ = State::kBlocked;
    bool boosted_ = false;
    bool ranSinceSched_ = false;
    sim::Time sliceUsed_ = 0;
    std::deque<Task> irqQ_;
    std::deque<Task> normalQ_;
};

/** The single physical CPU of the simulated host. */
class SimCpu : public sim::SimObject
{
  public:
    /** Hypervisor work is traced on lane @p hv_lane, the hypervisor's. */
    SimCpu(sim::SimContext &ctx, std::string name, CpuParams params = {},
           const std::string &hv_lane = "hypervisor");

    /** Create a vCPU for @p dom.  The SimCpu owns the returned object. */
    Vcpu &createVcpu(mem::DomainId dom, std::string name);

    /**
     * Run hypervisor work at priority above all domains.
     * @param cost CPU time consumed
     * @param done invoked when the work completes
     */
    void runHypervisor(sim::Time cost, std::function<void()> done = {});

    /** Accumulated execution profile. */
    ExecProfile &profile() { return profile_; }
    const ExecProfile &profile() const { return profile_; }

    /** Discard accounting so far; the measurement window starts now. */
    void resetAccounting();

    /** Elapsed time in the current measurement window. */
    sim::Time elapsed() const { return now() - accountingStart_; }

    /** Flush any in-progress idle span into the profile (call before
     *  reading the profile). */
    void syncIdle();

    std::uint64_t domainSwitches() const { return nSwitches_.value(); }
    std::uint64_t tasksRun() const { return nTasks_.value(); }
    std::uint64_t hvItemsRun() const { return nHvItems_.value(); }

    const CpuParams &params() const { return params_; }

  private:
    friend class Vcpu;

    struct HvItem
    {
        sim::Time cost;
        std::function<void()> done;
    };

    /** A vCPU gained work; make it runnable and kick the CPU. */
    void notifyWake(Vcpu *v, bool boost);

    void kick();
    void dispatch();
    void beginBusy();
    Vcpu *pickNext();
    void makeRunnable(Vcpu *v, bool boost);
    double contentionMultiplier() const;

    CpuParams params_;
    ExecProfile profile_;
    std::vector<std::unique_ptr<Vcpu>> vcpus_;

    std::deque<HvItem> hvQ_;
    std::deque<Vcpu *> runnable_; //!< boosted at front, normal at back
    Vcpu *current_ = nullptr;
    Vcpu *lastRan_ = nullptr; //!< last domain to occupy the CPU
    bool busy_ = false;
    bool idling_ = true;
    sim::Time idleSince_ = 0;
    sim::Time accountingStart_ = 0;
    bool surchargePending_ = false;
    std::uint32_t boostStreak_ = 0;
    sim::Tracer::LaneId hvLane_;

    sim::Counter nSwitches_{stats(), "domain_switches"};
    sim::Counter nTasks_{stats(), "tasks"};
    sim::Counter nHvItems_{stats(), "hv_items"};
};

} // namespace cdna::cpu

#endif // CDNA_CPU_SIM_CPU_HH
