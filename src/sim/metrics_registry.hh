/**
 * @file
 * Hierarchical metrics: a machine-readable view of every component's
 * statistics, plus periodic time-series sampling of gauges.
 *
 * Every SimObject's StatGroup lists its counters; the registry
 * federates them under component names and serializes the whole
 * simulation's counters as one JSON document, the simulator's only
 * stats dump.  Only an observed run builds a registry: sim::Topology::run
 * does, when the run samples gauges or writes --stats-json.
 *
 * Gauges are named callbacks returning a double (per-domain CPU
 * utilization, ring occupancy, pinned-page counts, ...).  When sampling
 * is started, a self-rescheduling event reads every gauge each period
 * and appends (time, value) points; the series are included in the JSON
 * dump and mirrored into the Tracer as counter events when tracing is
 * on.  Sampling callbacks must be read-only with respect to simulated
 * state so enabling them cannot perturb results.
 */

#ifndef CDNA_SIM_METRICS_REGISTRY_HH
#define CDNA_SIM_METRICS_REGISTRY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace cdna::sim {

class SimContext;

class MetricsRegistry
{
  public:
    explicit MetricsRegistry(SimContext &ctx);
    /** Stops sampling: no event is left to call into a dead registry. */
    ~MetricsRegistry();

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** Register a sampled gauge under a dotted @p name. */
    void addGauge(std::string name, std::function<double()> fn);

    std::size_t gaugeCount() const { return gauges_.size(); }

    /**
     * Sample every gauge each @p period of simulated time, starting one
     * period from now.  Restarting with a new period is allowed.
     */
    void startSampling(Time period);

    void stopSampling();

    bool sampling() const { return pending_ != kInvalidEvent; }
    Time samplePeriod() const { return period_; }

    /** Take one sample of every gauge immediately. */
    void sampleOnce();

    /** Recorded points of gauge @p name (empty if unknown). */
    const std::vector<std::pair<Time, double>> &
    series(const std::string &name) const;

    /**
     * The full metrics document:
     * {
     *   "time_ps": <now>,
     *   "components": { "<name>": {
     *       "counters": { "<stat>": N, ... }
     *   }, ... },
     *   "sample_period_ps": <period>,
     *   "timeseries": { "<gauge>": [[t_ps, value], ...], ... }
     * }
     */
    std::string toJson() const;

    /** Write toJson() to @p path.  @return success */
    bool writeJson(const std::string &path) const;

  private:
    struct Gauge
    {
        std::string name;
        std::function<double()> fn;
        std::vector<std::pair<Time, double>> points;
        std::uint32_t traceLane = 0;
        bool laneInterned = false;
    };

    void scheduleNext();

    SimContext &ctx_;
    std::vector<Gauge> gauges_;
    Time period_ = 0;
    EventId pending_ = kInvalidEvent;
};

} // namespace cdna::sim

#endif // CDNA_SIM_METRICS_REGISTRY_HH
