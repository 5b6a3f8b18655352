/**
 * @file
 * Base class and shared context for simulated components.
 *
 * A SimContext bundles the services every component needs -- the event
 * queue/clock, a root random stream, and a place to register itself so
 * whole-system stat dumps can enumerate components.  SimObject wires a
 * named component to that context and gives it one diagnostic channel,
 * warn(), for modeled faults worth a line on stderr.
 */

#ifndef CDNA_SIM_SIM_OBJECT_HH
#define CDNA_SIM_SIM_OBJECT_HH

#include <string>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/trace.hh"

namespace cdna::sim {

class SimObject;
class FaultInjector;

/** Shared simulation services: clock, randomness, component registry. */
class SimContext
{
  public:
    explicit SimContext(std::uint64_t seed = 1);

    EventQueue &events() { return events_; }
    const EventQueue &events() const { return events_; }
    Time now() const { return events_.now(); }

    /** Root random stream; components should fork() their own. */
    Rng &rng() { return rng_; }

    /** Event tracer (disabled by default; see sim/trace.hh). */
    Tracer &tracer() { return tracer_; }
    const Tracer &tracer() const { return tracer_; }

    void registerObject(SimObject *obj) { objects_.push_back(obj); }
    const std::vector<SimObject *> &objects() const { return objects_; }

    /**
     * Fault injector, or null when no faults are configured.  Fault
     * hooks throughout the simulator key off this pointer and must not
     * change behavior at all while it is null (see
     * sim/fault_injector.hh).
     */
    FaultInjector *faultInjector() { return faults_; }
    void setFaultInjector(FaultInjector *f) { faults_ = f; }

  private:
    EventQueue events_;
    Rng rng_;
    Tracer tracer_;
    std::vector<SimObject *> objects_;
    FaultInjector *faults_ = nullptr;
};

/** A named component bound to a SimContext. */
class SimObject
{
  public:
    SimObject(SimContext &ctx, std::string name);
    virtual ~SimObject() = default;

    SimObject(const SimObject &) = delete;
    SimObject &operator=(const SimObject &) = delete;

    const std::string &name() const { return name_; }
    SimContext &ctx() { return ctx_; }
    EventQueue &events() { return ctx_.events(); }
    Time now() const { return ctx_.now(); }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** This component's trace lane (interned at construction). */
    Tracer::LaneId traceLane() const { return traceLane_; }

  protected:
    /**
     * Print "[<time> us] WARN  <name> <message>" to stderr, @p fmt
     * being printf-style.  The line is formatted whole and printed in
     * one call, so lines from parallel sweep runs never interleave.
     */
    void warn(const char *fmt, ...) const;

  private:
    SimContext &ctx_;
    std::string name_;
    StatGroup stats_;
    Tracer::LaneId traceLane_;
};

} // namespace cdna::sim

#endif // CDNA_SIM_SIM_OBJECT_HH
