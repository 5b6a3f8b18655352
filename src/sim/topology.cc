#include "sim/topology.hh"

#include <stdexcept>
#include <string>
#include <utility>

#include "sim/assert.hh"
#include "sim/metrics_registry.hh"

namespace cdna::sim {

Topology::Topology(std::uint64_t seed, const core::CliOptions *observe)
    : ctx_(std::make_unique<SimContext>(seed)), observe_(observe)
{
}

Topology::~Topology() = default;

net::EthSwitch &
Topology::addSwitch(const std::string &name, std::uint32_t num_ports,
                    net::EthSwitchParams params)
{
    switches_.push_back(
        std::make_unique<net::EthSwitch>(*ctx_, name, num_ports, params));
    return *switches_.back();
}

net::SwitchTrunk &
Topology::link(net::EthSwitch &a, net::EthSwitch &b)
{
    trunks_.push_back(std::make_unique<net::SwitchTrunk>(
        *ctx_, "trunk" + std::to_string(trunks_.size()), a, b));
    return *trunks_.back();
}

void
Topology::routeOnSwitch(net::Fabric &fabric, net::MacAddr mac,
                        std::uint32_t port_index)
{
    for (auto &sw : switches_)
        if (sw.get() == &fabric)
            sw->setRoute(mac, port_index);
}

core::System &
Topology::addHost(const core::SystemConfig &cfg,
                  std::vector<net::Fabric *> fabrics)
{
    SIM_ASSERT(reports_.empty(), "cannot add hosts after run()");
    auto id = static_cast<std::uint32_t>(hosts_.size());
    hosts_.push_back(std::make_unique<core::System>(cfg, *ctx_, id,
                                                    std::move(fabrics)));
    core::System &sys = *hosts_.back();

    // Pin this host's MACs to its switch ports: every guest terminates
    // one connection per NIC, and Xen/native modes source from the
    // driver-domain MAC as well.
    for (std::uint32_t i = 0; i < cfg.numNics; ++i) {
        if (!sys.nicExternal(i))
            continue;
        net::Fabric &fab = sys.nicFabric(i);
        std::uint32_t port = sys.nicPort(i).index();
        for (std::uint32_t g = 0; g < cfg.numGuests; ++g)
            routeOnSwitch(fab, sys.guestMac(g, i), port);
        routeOnSwitch(fab, sys.driverMac(i), port);
    }
    return sys;
}

net::TrafficPeer &
Topology::addPeer(const std::string &name, net::Fabric &fabric)
{
    peers_.push_back(
        std::make_unique<net::TrafficPeer>(*ctx_, name, fabric));
    net::TrafficPeer &peer = *peers_.back();
    routeOnSwitch(fabric, peer.mac(), peer.port().index());
    return peer;
}

void
Topology::run(Time warmup, Time measure,
              std::function<void()> on_measure_begin)
{
    SIM_ASSERT(reports_.empty(), "Topology::run is one-shot");
    SIM_ASSERT(!hosts_.empty(), "topology has no hosts");
    // Only an observed run that samples gauges or writes --stats-json
    // builds a registry, with host 0's gauges.
    std::unique_ptr<MetricsRegistry> metrics;
    if (observe_) {
        if (!observe_->traceFile.empty()) {
            ctx_->tracer().enable();
            if (!observe_->traceFilter.empty())
                ctx_->tracer().setFilter(observe_->traceFilter);
        }
        // Sampling is useful on its own (the series land in
        // --stats-json), so it is keyed off the period, not the trace
        // flag; a stats dump with no period still gets one sample per
        // simulated millisecond.
        Time period = observe_->samplePeriod;
        if (period == 0 && !observe_->statsJsonFile.empty())
            period = milliseconds(1.0);
        if (period > 0) {
            metrics = std::make_unique<MetricsRegistry>(*ctx_);
            hosts_.front()->registerGauges(*metrics);
            metrics->startSampling(period);
        }
    }
    for (auto &h : hosts_)
        h->start();
    ctx_->events().runUntil(warmup);
    for (auto &h : hosts_)
        h->beginMeasurement();
    if (on_measure_begin)
        on_measure_begin();
    ctx_->events().runUntil(warmup + measure);
    for (auto &h : hosts_)
        reports_.push_back(h->endMeasurement(measure));
    if (!observe_)
        return;
    const std::string &trace = observe_->traceFile;
    if (!trace.empty() && !ctx_->tracer().writeChromeJson(trace))
        throw std::runtime_error("cannot write trace file: " + trace);
    const std::string &stats = observe_->statsJsonFile;
    if (!stats.empty() && !metrics->writeJson(stats))
        throw std::runtime_error("cannot write stats file: " + stats);
}

core::Report
Topology::report(std::size_t h) const
{
    SIM_ASSERT(h < reports_.size(), "no report: index bad or run() not called");
    return reports_[h];
}

core::Report
Topology::report(const core::System &h) const
{
    for (std::size_t i = 0; i < hosts_.size(); ++i)
        if (hosts_[i].get() == &h)
            return report(i);
    SIM_ASSERT(false, "host not in this topology");
    return {};
}

} // namespace cdna::sim
