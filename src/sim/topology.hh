/**
 * @file
 * Multi-host topology builder: full System instances, switches, and
 * external traffic peers composed inside ONE simulation context.
 *
 * A Topology owns the shared SimContext and wires hosts onto fabrics:
 *
 *   sim::Topology topo(seed);
 *   auto &sw = topo.addSwitch("sw", 5);
 *   auto &victim = topo.addHost(core::SystemConfig::cdna(1).receive(),
 *                               {&sw});
 *   auto &sender = topo.addPeer("sender", sw);
 *   sender.applyWorkload(net::workload::WorkloadSpec{}
 *       .toward({victim.guestMac(0, 0)})
 *       .withClass(net::workload::FlowClass::saturating()));
 *   topo.run(warmup, measure);
 *   core::Report r = topo.report(victim);
 *
 * addHost() passes each System its host index k.  Host 0 keeps the
 * standalone names and MACs, so a 1-host topology with no external
 * fabrics is event-for-event identical to a standalone System -- the
 * single-host paper configurations are the degenerate case of this
 * builder, not a separate code path.  Every subsequent host's names
 * carry an "h<k>." prefix and its MACs a disjoint block.
 *
 * Switches forward by static route only.  addHost() pins every guest
 * MAC (and the driver-domain MAC for Xen modes) to the host's switch
 * port, addPeer() pins the peer's MAC to its port, and the caller pins
 * the routes that cross a trunk.
 *
 * Every sweep cell and every `cdna_sim` run is a Topology, so this is
 * the one place a run is observed: given CLI observability options,
 * run() enables tracing, builds the metrics registry with host 0's
 * gauges when the run samples them or writes --stats-json, and writes
 * the --trace and --stats-json files.  The trace then covers every lane
 * of the shared context, and --stats-json every component's counters
 * but host 0's gauges.  An unobserved run builds no registry and no
 * gauge.
 */

#ifndef CDNA_SIM_TOPOLOGY_HH
#define CDNA_SIM_TOPOLOGY_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/cli.hh"
#include "core/system.hh"
#include "net/eth_switch.hh"
#include "net/traffic_peer.hh"
#include "sim/sim_object.hh"

namespace cdna::sim {

class Topology
{
  public:
    /**
     * @p observe, when set, is attached to host 0 by run() and must
     * outlive it.
     */
    explicit Topology(std::uint64_t seed = 1,
                      const core::CliOptions *observe = nullptr);
    ~Topology();

    Topology(const Topology &) = delete;
    Topology &operator=(const Topology &) = delete;

    SimContext &ctx() { return *ctx_; }

    /** Add an @p num_ports -port switch named @p name. */
    net::EthSwitch &addSwitch(const std::string &name,
                              std::uint32_t num_ports,
                              net::EthSwitchParams params = {});

    /** Uplink two switches; routes via the trunk must be pinned with
     *  setRoute(mac, trunk.portOnA()/portOnB()) on each switch. */
    net::SwitchTrunk &link(net::EthSwitch &a, net::EthSwitch &b);

    /**
     * Add a full System.  NIC i binds @p fabrics[i]; a nullptr entry
     * (or a short vector) leaves that NIC on a private EthLink +
     * TrafficPeer pair.  Guest and driver-domain MACs are statically
     * routed on every switch the host binds.
     */
    core::System &addHost(const core::SystemConfig &cfg,
                          std::vector<net::Fabric *> fabrics);

    /** Add an external traffic peer on @p fabric (statically routed
     *  when the fabric is one of our switches). */
    net::TrafficPeer &addPeer(const std::string &name,
                              net::Fabric &fabric);

    std::size_t numHosts() const { return hosts_.size(); }
    core::System &host(std::size_t i) { return *hosts_[i]; }

    /**
     * Start every host, simulate @p warmup, begin measurement on every
     * host (and fire @p on_measure_begin, for per-flow baseline
     * snapshots), simulate @p measure, and end measurement.  Reports
     * are then available via report().  An observed topology writes
     * its trace and stats files at the end.
     * @throw std::runtime_error naming a file it cannot write
     */
    void run(Time warmup, Time measure,
             std::function<void()> on_measure_begin = {});

    /** Host @p h's measurement-window report (after run()). */
    core::Report report(std::size_t h) const;
    core::Report report(const core::System &h) const;

  private:
    std::unique_ptr<SimContext> ctx_;
    const core::CliOptions *observe_;
    std::vector<std::unique_ptr<net::EthSwitch>> switches_;
    std::vector<std::unique_ptr<net::SwitchTrunk>> trunks_;
    std::vector<std::unique_ptr<core::System>> hosts_;
    std::vector<std::unique_ptr<net::TrafficPeer>> peers_;
    std::vector<core::Report> reports_;

    /** Pin @p mac to @p port_index on @p fabric if it is one of our
     *  switches (links need no routes). */
    void routeOnSwitch(net::Fabric &fabric, net::MacAddr mac,
                       std::uint32_t port_index);
};

} // namespace cdna::sim

#endif // CDNA_SIM_TOPOLOGY_HH
