#include "cpu/sim_cpu.hh"

#include <algorithm>
#include <utility>

#include "sim/assert.hh"

namespace cdna::cpu {

Vcpu::Vcpu(SimCpu &cpu, mem::DomainId dom, std::string name)
    : cpu_(cpu), dom_(dom), name_(std::move(name))
{
}

void
Vcpu::post(Bucket bucket, sim::Time cost, std::function<void()> done)
{
    normalQ_.push_back(Task{bucket, cost, std::move(done)});
    cpu_.notifyWake(this, false);
}

void
Vcpu::postIrq(Bucket bucket, sim::Time cost, std::function<void()> done)
{
    irqQ_.push_back(Task{bucket, cost, std::move(done)});
    cpu_.notifyWake(this, true);
}

SimCpu::SimCpu(sim::SimContext &ctx, std::string name, CpuParams params,
               const std::string &hv_lane)
    : sim::SimObject(ctx, std::move(name)),
      params_(params),
      hvLane_(ctx.tracer().lane(hv_lane))
{
    idleSince_ = now();
}

Vcpu &
SimCpu::createVcpu(mem::DomainId dom, std::string name)
{
    vcpus_.push_back(std::make_unique<Vcpu>(*this, dom, std::move(name)));
    vcpus_.back()->traceLane_ = ctx().tracer().lane(vcpus_.back()->name());
    return *vcpus_.back();
}

void
SimCpu::runHypervisor(sim::Time cost, std::function<void()> done)
{
    SIM_ASSERT(cost >= 0, "negative hypervisor cost");
    hvQ_.push_back(HvItem{cost, std::move(done)});
    kick();
}

void
SimCpu::resetAccounting()
{
    syncIdle();
    profile_.reset();
    accountingStart_ = now();
}

void
SimCpu::syncIdle()
{
    if (idling_) {
        profile_.chargeIdle(now() - idleSince_);
        idleSince_ = now();
    }
}

void
SimCpu::notifyWake(Vcpu *v, bool boost)
{
    switch (v->state_) {
      case Vcpu::State::kRunning:
        // Already on the CPU; it will see the new task next dispatch.
        return;
      case Vcpu::State::kRunnable:
        if (boost && !v->boosted_) {
            // Promote within the runnable queue.
            auto it = std::find(runnable_.begin(), runnable_.end(), v);
            SIM_ASSERT(it != runnable_.end(), "runnable vcpu not queued");
            runnable_.erase(it);
            v->boosted_ = true;
            runnable_.push_front(v);
        }
        return;
      case Vcpu::State::kBlocked:
        makeRunnable(v, boost);
        kick();
        return;
    }
}

void
SimCpu::makeRunnable(Vcpu *v, bool boost)
{
    v->state_ = Vcpu::State::kRunnable;
    v->boosted_ = boost;
    if (boost) {
        // FIFO among boosted vCPUs: insert after the last boosted entry
        // so repeated wakes cannot systematically starve late arrivals.
        auto it = runnable_.begin();
        while (it != runnable_.end() && (*it)->boosted_)
            ++it;
        runnable_.insert(it, v);
    } else {
        runnable_.push_back(v);
    }
}

void
SimCpu::kick()
{
    if (!busy_)
        dispatch();
}

void
SimCpu::beginBusy()
{
    if (idling_) {
        profile_.chargeIdle(now() - idleSince_);
        idling_ = false;
    }
    busy_ = true;
}

Vcpu *
SimCpu::pickNext()
{
    if (current_) {
        Vcpu *cur = current_;
        bool has_tasks = !cur->idle();
        bool slice_ok = cur->sliceUsed_ < params_.slice;
        // A boosted waiter preempts -- but never before the current
        // vCPU has run at least one task since being scheduled, or a
        // steady stream of boosted wakeups could livelock it into
        // paying switch costs without ever making progress.
        bool boosted_waiter = !runnable_.empty() &&
                              runnable_.front()->boosted_ &&
                              cur->ranSinceSched_;
        if (has_tasks && slice_ok && !boosted_waiter)
            return cur;
        // Give up the CPU: block if out of work, else requeue at tail.
        current_ = nullptr;
        if (has_tasks) {
            cur->state_ = Vcpu::State::kRunnable;
            cur->boosted_ = false;
            if (!slice_ok)
                cur->sliceUsed_ = 0;
            runnable_.push_back(cur);
        } else {
            cur->state_ = Vcpu::State::kBlocked;
            cur->boosted_ = false;
            cur->sliceUsed_ = 0;
        }
    }
    if (runnable_.empty())
        return nullptr;

    // Anti-starvation: a long run of boosted dispatches yields one slot
    // to the oldest non-boosted waiter (credit-scheduler fairness).
    auto it = runnable_.begin();
    if ((*it)->boosted_) {
        if (++boostStreak_ > params_.boostStreakLimit) {
            auto nb = std::find_if(runnable_.begin(), runnable_.end(),
                                   [](Vcpu *v) { return !v->boosted_; });
            if (nb != runnable_.end()) {
                it = nb;
                boostStreak_ = 0;
            }
        }
    } else {
        boostStreak_ = 0;
    }

    Vcpu *v = *it;
    runnable_.erase(it);
    // Boost is consumed by being dispatched.
    v->boosted_ = false;
    v->state_ = Vcpu::State::kRunning;
    v->sliceUsed_ = 0;
    v->ranSinceSched_ = false;
    return v;
}

double
SimCpu::contentionMultiplier() const
{
    if (params_.cacheContentionAlpha <= 0.0)
        return 1.0;
    sim::Time horizon = now() - params_.contentionWindow;
    int n = 0;
    for (const auto &v : vcpus_) {
        if (!v->contends_)
            continue;
        // A guest contends if it holds work (runnable/running) or ran
        // recently -- a starved-but-runnable guest still owns cache
        // footprint the moment it is dispatched.
        if (v->state_ != Vcpu::State::kBlocked || !v->idle() ||
            v->lastRan_ >= horizon)
            ++n;
    }
    if (n <= 1)
        return 1.0;
    return 1.0 + params_.cacheContentionAlpha *
                     (1.0 - 1.0 / static_cast<double>(n));
}

void
SimCpu::dispatch()
{
    SIM_ASSERT(!busy_, "dispatch while busy");

    // 1. Hypervisor work preempts all domains.
    if (!hvQ_.empty()) {
        sim::Time cost = hvQ_.front().cost;
        running_ = std::move(hvQ_.front().done);
        hvQ_.pop_front();
        beginBusy();
        nHvItems_.inc();
        CDNA_TRACE_SPAN(ctx().tracer(), hvLane_, "hv", now(), cost);
        events().schedule(cost, [this, cost] {
            profile_.chargeHypervisor(cost);
            finishRunning();
        });
        return;
    }

    // 2. Pick a domain.
    Vcpu *v = pickNext();
    if (!v) {
        if (!idling_) {
            idling_ = true;
            idleSince_ = now();
        }
        return;
    }

    // 3. Domain switch: when a *different* domain takes the CPU, charge
    //    the world-switch cost in the hypervisor and mark the incoming
    //    domain cache-cold.  A domain re-waking with no intervening
    //    domain pays neither (address space and cache are still warm).
    if (v != lastRan_) {
        nSwitches_.inc();
        surchargePending_ = true;
        lastRan_ = v;
        current_ = v;
        beginBusy();
        CDNA_TRACE_SPAN(ctx().tracer(), hvLane_, "domain_switch", now(),
                        params_.domainSwitchCost);
        events().schedule(params_.domainSwitchCost, [this] {
            profile_.chargeHypervisor(params_.domainSwitchCost);
            busy_ = false;
            kick();
        });
        return;
    }

    // 4. Run the domain's next task.
    current_ = v;
    SIM_ASSERT(!v->idle(), "picked vcpu with no tasks");
    auto &q = v->irqQ_.empty() ? v->normalQ_ : v->irqQ_;
    Bucket bucket = q.front().bucket;
    sim::Time task_cost = q.front().cost;
    running_ = std::move(q.front().done);
    q.pop_front();

    v->lastRan_ = now();
    v->ranSinceSched_ = true;
    sim::Time cost = static_cast<sim::Time>(
        static_cast<double>(task_cost) * contentionMultiplier());
    if (surchargePending_) {
        cost += params_.cacheColdSurcharge;
        surchargePending_ = false;
    }
    v->sliceUsed_ += cost;
    beginBusy();
    nTasks_.inc();
    CDNA_TRACE_SPAN(ctx().tracer(), v->traceLane_,
                    bucket == Bucket::kOs ? "os" : "user", now(), cost);
    events().schedule(cost, [this, v, cost, bucket] {
        profile_.chargeDomain(v->dom_, bucket, cost);
        finishRunning();
    });
}

void
SimCpu::finishRunning()
{
    busy_ = false;
    std::function<void()> done = std::move(running_);
    if (done)
        done();
    kick();
}

} // namespace cdna::cpu
