#include "sim/metrics_registry.hh"

#include <cstdio>
#include <utility>

#include "sim/assert.hh"
#include "sim/sim_object.hh"
#include "sim/trace.hh"

namespace cdna::sim {

MetricsRegistry::MetricsRegistry(SimContext &ctx) : ctx_(ctx)
{
}

MetricsRegistry::~MetricsRegistry()
{
    stopSampling();
}

void
MetricsRegistry::addGauge(std::string name, std::function<double()> fn)
{
    gauges_.push_back(Gauge{std::move(name), std::move(fn), {}, 0, false});
}

void
MetricsRegistry::startSampling(Time period)
{
    SIM_ASSERT(period > 0, "non-positive sample period");
    stopSampling();
    period_ = period;
    scheduleNext();
}

void
MetricsRegistry::stopSampling()
{
    if (pending_ != kInvalidEvent) {
        ctx_.events().cancel(pending_);
        pending_ = kInvalidEvent;
    }
}

void
MetricsRegistry::scheduleNext()
{
    pending_ = ctx_.events().schedule(period_, [this] {
        sampleOnce();
        scheduleNext();
    });
}

void
MetricsRegistry::sampleOnce()
{
    Time t = ctx_.now();
    Tracer &tracer = ctx_.tracer();
    for (auto &g : gauges_) {
        double v = g.fn();
        g.points.emplace_back(t, v);
        if (tracer.enabled()) {
            if (!g.laneInterned) {
                g.traceLane = tracer.lane(g.name);
                g.laneInterned = true;
            }
            CDNA_TRACE_COUNTER(tracer, g.traceLane, "value", t, v);
        }
    }
}

const std::vector<std::pair<Time, double>> &
MetricsRegistry::series(const std::string &name) const
{
    static const std::vector<std::pair<Time, double>> kEmpty;
    for (const auto &g : gauges_)
        if (g.name == name)
            return g.points;
    return kEmpty;
}

std::string
MetricsRegistry::toJson() const
{
    std::string out;
    char buf[256];
    std::snprintf(buf, sizeof(buf), "{\n\"time_ps\": %lld,\n",
                  static_cast<long long>(ctx_.now()));
    out += buf;

    out += "\"components\": {";
    bool first_obj = true;
    for (const SimObject *obj : ctx_.objects()) {
        const StatGroup &g = obj->stats();
        out += first_obj ? "\n" : ",\n";
        first_obj = false;
        out += "  \"" + jsonEscape(obj->name()) + "\": {";
        out += "\n    \"counters\": {";
        bool first = true;
        for (const auto &[name, c] : g.counters()) {
            std::snprintf(buf, sizeof(buf), "%s\n      \"%s\": %llu",
                          first ? "" : ",", jsonEscape(name).c_str(),
                          static_cast<unsigned long long>(c->value()));
            out += buf;
            first = false;
        }
        out += first ? "}" : "\n    }";
        out += "\n  }";
    }
    out += first_obj ? "},\n" : "\n},\n";

    std::snprintf(buf, sizeof(buf), "\"sample_period_ps\": %lld,\n",
                  static_cast<long long>(period_));
    out += buf;

    out += "\"timeseries\": {";
    bool first_g = true;
    for (const auto &g : gauges_) {
        out += first_g ? "\n" : ",\n";
        first_g = false;
        out += "  \"" + jsonEscape(g.name) + "\": [";
        for (std::size_t i = 0; i < g.points.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s[%lld, %.9g]",
                          i ? ", " : "",
                          static_cast<long long>(g.points[i].first),
                          g.points[i].second);
            out += buf;
        }
        out += "]";
    }
    out += first_g ? "}\n" : "\n}\n";
    out += "}\n";
    return out;
}

bool
MetricsRegistry::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::string json = toJson();
    bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size();
    return std::fclose(f) == 0 && ok;
}

} // namespace cdna::sim
