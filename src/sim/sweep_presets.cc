#include "sim/sweep_presets.hh"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <utility>

#include "net/eth_switch.hh"
#include "sim/topology.hh"

namespace cdna::sim::presets {

namespace {

core::SystemConfig
xenIntelG(std::uint32_t g)
{
    return core::SystemConfig::xenIntel(g);
}

core::SystemConfig
cdnaG(std::uint32_t g)
{
    return core::SystemConfig::cdna(g);
}

/**
 * A Tables 2-4 row: the paper's values for @p cell's profileKeys(), in
 * that order, each in its family's default band unless @p wider names
 * the key.
 */
void
profileRow(ExperimentSpec &spec, const std::string &cell,
           const std::vector<double> &values,
           const std::map<std::string, Band> &wider = {})
{
    const std::vector<std::string> &keys = core::profileKeys();
    for (std::size_t i = 0; i < keys.size(); ++i) {
        auto it = wider.find(keys[i]);
        spec.paper(cell, keys[i], values.at(i),
                   it == wider.end() ? std::nullopt
                                     : std::optional<Band>(it->second));
    }
}

// The paper's CDNA rows of Tables 2 and 3; Table 4 repeats them as its
// protection-on rows.
const std::vector<double> kCdnaTx = {1867, 10.2, 0.3, 0.2, 37.8, 0.7, 50.8,
                                     0, 13659};
const std::vector<double> kCdnaRx = {1874, 9.9, 0.3, 0.2, 48.0, 0.7, 40.9,
                                     0, 7402};

/**
 * A runner that runs the cell as a one-host topology, as runHost()
 * does, then lets @p extras read the host.
 */
ExperimentSpec::Runner
hostRunner(std::function<void(core::System &,
                              std::map<std::string, double> &)>
               extras)
{
    return [extras = std::move(extras)](
               const RunPoint &point, std::map<std::string, double> &extra) {
        Topology topo(point.config.seed, point.observe);
        core::System &sys = topo.addHost(point.config, {});
        topo.run(point.warmup, point.measure);
        extras(sys, extra);
        return topo.report(sys);
    };
}

} // namespace

// Paper values come from the paper's tables and the figure captions.
// Bands wider than the default cite their entry under "Known deviations"
// in EXPERIMENTS.md by number.

ExperimentSpec
table1()
{
    auto xen = core::SystemConfig::xenIntel(1);
    xen.numNics = 6;
    return ExperimentSpec("table1")
        .config("native", core::SystemConfig::native(6))
        .config("xen", xen)
        .directions(true, true)
        .columns({"mbps", "idle_pct"})
        .paper("native/tx", "mbps", 5126, Band::percent(15)) // 4
        .paper("native/rx", "mbps", 3629, Band::percent(25)) // 3
        .paper("xen/tx", "mbps", 1602)
        .paper("xen/rx", "mbps", 1112);
}

ExperimentSpec
table2()
{
    ExperimentSpec spec("table2");
    spec.config("xen-intel", core::SystemConfig::xenIntel(1))
        .config("xen-ricenic", core::SystemConfig::xenRice(1))
        .config("cdna", core::SystemConfig::cdna(1))
        .columns(core::profileKeys());
    profileRow(spec, "xen-intel",
               {1602, 19.8, 35.7, 0.8, 39.7, 1.0, 3.0, 7438, 7853},
               {{"guest_intr_per_sec", Band::percent(60)}}); // 5
    profileRow(spec, "xen-ricenic",
               {1674, 13.7, 41.5, 0.5, 39.5, 1.0, 3.8, 8839, 5661},
               {{"mbps", Band::percent(35)},                  // 1
                {"hyp_pct", Band::absolute(10)},              // 1
                {"guest_intr_per_sec", Band::percent(35)}});  // 5
    profileRow(spec, "cdna", kCdnaTx);
    return spec;
}

ExperimentSpec
table3()
{
    ExperimentSpec spec("table3");
    spec.config("xen-intel", core::SystemConfig::xenIntel(1))
        .config("xen-ricenic", core::SystemConfig::xenRice(1))
        .config("cdna", core::SystemConfig::cdna(1))
        .directions(false, true)
        .columns(core::profileKeys());
    profileRow(spec, "xen-intel/rx",
               {1112, 25.7, 36.8, 0.5, 31.0, 1.0, 5.0, 11138, 5193},
               {{"mbps", Band::percent(15)},                 // 6
                {"hyp_pct", Band::absolute(10)},             // 6
                {"drv_os_pct", Band::absolute(10)},          // 6
                {"guest_os_pct", Band::absolute(10)},        // 6
                {"drv_intr_per_sec", Band::percent(55)},     // 5
                {"guest_intr_per_sec", Band::percent(80)}}); // 5
    profileRow(spec, "xen-ricenic/rx",
               {1075, 30.6, 39.4, 0.6, 28.8, 0.6, 0.0, 10946, 5163},
               {{"drv_intr_per_sec", Band::percent(80)},     // 5
                {"guest_intr_per_sec", Band::percent(80)}}); // 5
    profileRow(spec, "cdna/rx", kCdnaRx);
    return spec;
}

ExperimentSpec
table4()
{
    ExperimentSpec spec("table4");
    spec.config("cdna", core::SystemConfig::cdna(1))
        .directions(true, true)
        .vary("protection",
              {{"prot",
                [](core::SystemConfig &c) { c.withProtection(true); }},
               {"noprot",
                [](core::SystemConfig &c) { c.withProtection(false); }}})
        .columns(core::profileKeys());
    profileRow(spec, "cdna/tx/prot", kCdnaTx);
    profileRow(spec, "cdna/tx/noprot",
               {1867, 1.9, 0.2, 0.2, 37.0, 0.3, 60.4, 0, 13680});
    profileRow(spec, "cdna/rx/prot", kCdnaRx);
    profileRow(spec, "cdna/rx/noprot",
               {1874, 1.9, 0.2, 0.2, 47.2, 0.3, 50.2, 0, 7243});
    return spec;
}

ExperimentSpec
fig3()
{
    return ExperimentSpec("fig3")
        .config("xen", xenIntelG)
        .config("cdna", cdnaG)
        .guests({1, 2, 4, 8, 12, 16, 20, 24})
        .columns({"mbps", "idle_pct", "fairness"})
        .paper("xen/g1", "mbps", 1602)
        .paper("xen/g24", "mbps", 891)
        .paper("cdna/g1", "mbps", 1867)
        .paper("cdna/g1", "idle_pct", 50.8)
        .paper("cdna/g2", "idle_pct", 25.4)
        .paper("cdna/g4", "idle_pct", 5.9, Band::absolute(15)) // 7
        .paper("cdna/g8", "idle_pct", 0.0, Band::absolute(15)); // 7
}

ExperimentSpec
fig4()
{
    return ExperimentSpec("fig4")
        .config("xen", xenIntelG)
        .config("cdna", cdnaG)
        .guests({1, 2, 4, 8, 12, 16, 20, 24})
        .directions(false, true)
        .columns({"mbps", "idle_pct"})
        .paper("xen/g1/rx", "mbps", 1112, Band::percent(15))  // 6
        .paper("xen/g24/rx", "mbps", 558, Band::percent(60)) // 2
        .paper("cdna/g1/rx", "mbps", 1874)
        .paper("cdna/g1/rx", "idle_pct", 40.9)
        .paper("cdna/g2/rx", "idle_pct", 29.1, Band::absolute(15)) // 7
        .paper("cdna/g4/rx", "idle_pct", 12.6, Band::absolute(15)) // 7
        .paper("cdna/g8/rx", "idle_pct", 0.0);
}

ExperimentSpec
latency()
{
    using Cfg = core::SystemConfig;
    namespace wl = net::workload;
    // Tail latency of a Poisson request/response RPC workload: peers
    // fire 512 B requests at the guests, which answer with 8 KiB
    // responses (net/workload/workload_spec.hh); the engines histogram
    // request-to-last-response-byte and the report carries p50/p99/p999.
    // The xen column rides the RiceNIC so the fwreboot fault has
    // firmware to reboot (and dom0 funnels every guest, so both outage
    // classes stall all four).
    auto rpcLoad = [](double rate) {
        return [rate](Cfg &c) {
            c.withWorkload(wl::WorkloadSpec{}.withClass(
                wl::FlowClass::rpc().poissonAt(rate)));
        };
    };
    auto oversub = core::SystemConfig::cdna(4).withNics(1).receive();
    oversub.cdnaContexts = 2; // 4 guests paged over 2 contexts
    return ExperimentSpec("latency")
        .config("xen", core::SystemConfig::xenRice(4).withNics(1).receive())
        .config("cdna", core::SystemConfig::cdna(4).withNics(1).receive())
        .config("cdna-oversub", oversub)
        .config("swpt",
                core::SystemConfig::swPassthrough(4).withNics(1).receive())
        .vary("load",
              {{"load2k", rpcLoad(2000.0)}, {"load10k", rpcLoad(10000.0)}})
        .vary("fault",
              {{"healthy", [](Cfg &) {}},
               {"domkill",
                [](Cfg &c) {
                    c.withFaults(core::FaultPlan{}.killingDriverDomain(150));
                }},
               {"fwreboot", [](Cfg &c) {
                    c.withFaults(core::FaultPlan{}.rebootingFirmware(0, 150));
                }}})
        .columns({"rpc_offered_rps", "rpc_achieved_rps", "rpc_lat_p50_us",
                  "rpc_lat_p99_us", "rpc_lat_p999_us", "rpc_timeouts"});
}

ExperimentSpec
coalesce()
{
    std::vector<std::pair<std::string, ExperimentSpec::Mutator>> windows;
    for (double us : {18.0, 36.0, 72.0, 145.0, 290.0, 580.0}) {
        char label[32];
        std::snprintf(label, sizeof(label), "w%.0fus", us);
        windows.emplace_back(label, [us](core::SystemConfig &c) {
            c.costs.cdnaCoalesce = sim::microseconds(us);
        });
    }
    return ExperimentSpec("coalesce")
        .config("cdna", core::SystemConfig::cdna(1))
        .vary("window", std::move(windows))
        .columns({"mbps", "guest_intr_per_sec", "idle_pct", "hyp_pct"});
}

ExperimentSpec
protectionAblation()
{
    using Cfg = core::SystemConfig;
    return ExperimentSpec("protection")
        .config("cdna", core::SystemConfig::cdna(1))
        .vary("variant",
              {{"full", [](Cfg &) {}},
               {"free-validate",
                [](Cfg &c) { c.costs.protValidatePerPage = 0; }},
               {"free-pin",
                [](Cfg &c) {
                    c.costs.protPinPerPage = 0;
                    c.costs.protUnpinPerPage = 0;
                }},
               {"free-enqueue",
                [](Cfg &c) { c.costs.protEnqueuePerDesc = 0; }},
               {"free-hypercall",
                [](Cfg &c) { c.costs.hv.hypercallOverhead = 0; }},
               {"disabled", [](Cfg &c) { c.withProtection(false); }}})
        .columns({"mbps", "hyp_pct", "idle_pct"});
}

ExperimentSpec
contexts()
{
    return ExperimentSpec("contexts")
        .config("cdna1nic",
                [](std::uint32_t g) {
                    return core::SystemConfig::cdna(g).withNics(1);
                })
        .guests({1, 2, 4, 8, 16, 24, 30})
        .columns({"mbps", "fw_util", "fairness", "idle_pct"})
        .runner(hostRunner([](core::System &sys,
                              std::map<std::string, double> &extra) {
            extra["fw_util"] =
                sys.cdnaNic(0)->firmwareUtilization(sys.cpu().elapsed());
        }));
}

ExperimentSpec
iommu()
{
    using Mode = mem::Iommu::Mode;
    return ExperimentSpec("iommu")
        .config("swprot", core::SystemConfig::cdna(2))
        .config("noprot-noiommu",
                core::SystemConfig::cdna(2).withProtection(false))
        .config("percontext", core::SystemConfig::cdna(2)
                                  .withProtection(false)
                                  .withIommu(Mode::kPerContext))
        .config("perdevice", core::SystemConfig::cdna(2)
                                 .withProtection(false)
                                 .withIommu(Mode::kPerDevice))
        .runner(hostRunner([](core::System &sys,
                              std::map<std::string, double> &extra) {
            extra["iommu_blocked"] =
                sys.iommu()
                    ? static_cast<double>(sys.iommu()->blockedCount())
                    : 0.0;
        }))
        .columns({"mbps", "hyp_pct", "iommu_blocked", "dma_violations"});
}

ExperimentSpec
flipcopy()
{
    return ExperimentSpec("flipcopy")
        .config("xen-flip",
                [](std::uint32_t g) {
                    return core::SystemConfig::xenIntel(g).receive();
                })
        .config("xen-copy",
                [](std::uint32_t g) {
                    return core::SystemConfig::xenIntel(g).receive().withRxCopy(
                        true);
                })
        .config("cdna",
                [](std::uint32_t g) {
                    return core::SystemConfig::cdna(g).receive();
                })
        .guests({1, 8})
        .columns(core::profileKeys());
}

ExperimentSpec
tcpLoss()
{
    using Cfg = core::SystemConfig;
    std::vector<std::pair<std::string, ExperimentSpec::Mutator>> loss;
    loss.emplace_back("drop0", [](Cfg &) {});
    for (double rate : {0.0001, 0.001, 0.01}) {
        char label[32];
        std::snprintf(label, sizeof(label), "drop%g", rate);
        loss.emplace_back(label, [rate](Cfg &c) {
            c.withFaults(core::FaultPlan{}.dropping(rate));
        });
    }
    loss.emplace_back("corrupt0.001", [](Cfg &c) {
        c.withFaults(core::FaultPlan{}.corrupting(0.001));
    });
    return ExperimentSpec("tcp-loss")
        .config("xen", core::SystemConfig::xenIntel(1).transport(core::kTcp))
        .config("cdna", core::SystemConfig::cdna(1).transport(core::kTcp))
        .config("swpt",
                core::SystemConfig::swPassthrough(1).transport(core::kTcp))
        .vary("loss", std::move(loss))
        .columns({"mbps", "wire_mbps", "tcp_retrans_segs",
                  "tcp_fast_retransmits", "tcp_rto_events",
                  "rx_drops_bad_csum"});
}

ExperimentSpec
availability()
{
    using Cfg = core::SystemConfig;
    return ExperimentSpec("availability")
        .config("xen", core::SystemConfig::xenIntel(2).transport(core::kTcp))
        // The firmware-reboot column needs a firmware NIC behind dom0:
        // Xen/RiceNIC funnels every guest through the driver domain's
        // single context, so one firmware reboot stalls them all.
        .config("xen-rice",
                core::SystemConfig::xenRice(2).transport(core::kTcp))
        .config("cdna", core::SystemConfig::cdna(2).transport(core::kTcp))
        // The swpt column stresses both outage classes: a driver-domain
        // kill stalls the hypervisor validator (all guests down), and a
        // firmware reboot resets the one shared Intel NIC.
        .config("swpt",
                core::SystemConfig::swPassthrough(2).transport(core::kTcp))
        .vary("fault",
              {{"healthy", [](Cfg &) {}},
               {"domkill",
                [](Cfg &c) {
                    c.withFaults(core::FaultPlan{}.killingDriverDomain(150));
                }},
               {"fwreboot", [](Cfg &c) {
                    c.withFaults(core::FaultPlan{}.rebootingFirmware(0, 150));
                }}})
        .columns({"mbps", "fe_reconnects", "per_guest_downtime_us",
                  "per_guest_ttfp_us", "pages_quarantined",
                  "quarantine_released", "outage_packets_lost"});
}

ExperimentSpec
oversub()
{
    // Scaling past the paper's 32 hardware contexts: from 64 guests on,
    // CDNA pages the guests' contexts over the NIC's 32.  Guest counts
    // reach 8x the context count; the measurement window is short
    // because the 256-guest cells are large.
    return ExperimentSpec("oversub")
        .config("xen",
                [](std::uint32_t g) {
                    return core::SystemConfig::xenIntel(g).withNics(1);
                })
        .config("cdna",
                [](std::uint32_t g) {
                    return core::SystemConfig::cdna(g).withNics(1);
                })
        .guests({8, 16, 32, 64, 128, 256})
        .warmup(sim::milliseconds(5))
        .measure(sim::milliseconds(20))
        .columns({"mbps", "cxt_page_traps", "cxt_evictions", "cxt_page_ins",
                  "cxt_resident_peak", "protection_faults"});
}

namespace {

/** Snapshot of one sender-side TCP flow for windowed deltas. */
struct FlowBase
{
    std::uint64_t acked = 0;
    std::uint64_t retrans = 0;
};

FlowBase
flowNow(net::TrafficPeer &peer)
{
    // The TCP endpoint exists once the sender's workload is applied.
    const net::transport::TcpEndpoint *tcp = peer.tcp();
    return tcp ? FlowBase{tcp->sndUnaTotal(), tcp->retransSegs()}
               : FlowBase{};
}

} // namespace

ExperimentSpec
incast()
{
    using Cfg = core::SystemConfig;
    std::vector<std::pair<std::string, ExperimentSpec::Mutator>> fanouts;
    for (std::uint32_t n : {2u, 4u, 8u, 16u}) {
        char label[16];
        std::snprintf(label, sizeof(label), "f%u", n);
        fanouts.emplace_back(label, [n](Cfg &c) {
            c.withScenario("fanout", static_cast<double>(n));
        });
    }
    return ExperimentSpec("incast")
        .config("xen", core::SystemConfig::xenIntel(1)
                           .receive()
                           .withNics(1)
                           .transport(core::kTcp))
        .config("cdna", core::SystemConfig::cdna(1)
                            .receive()
                            .withNics(1)
                            .transport(core::kTcp))
        .config("swpt", core::SystemConfig::swPassthrough(1)
                            .receive()
                            .withNics(1)
                            .transport(core::kTcp))
        .vary("fanout", std::move(fanouts))
        .vary("buffer",
              {{"buf32k",
                [](Cfg &c) {
                    c.withScenario("switch_buf_bytes", 32.0 * 1024.0);
                }},
               {"buf256k",
                [](Cfg &c) {
                    c.withScenario("switch_buf_bytes", 256.0 * 1024.0);
                }}})
        .warmup(sim::milliseconds(10))
        .measure(sim::milliseconds(40))
        .columns({"mbps", "switch_drops", "sender_retrans", "flow_mbps_min",
                  "flow_mbps_mean", "flow_mbps_max",
                  "switch_queue_peak_bytes"})
        .runner([](const RunPoint &point,
                   std::map<std::string, double> &extra) {
            const Cfg &cfg = point.config;
            auto fanout =
                static_cast<std::uint32_t>(cfg.scenarioOr("fanout", 4.0));
            net::EthSwitchParams sw_params;
            sw_params.bufBytesPerPort =
                static_cast<std::uint64_t>(cfg.scenarioOr(
                    "switch_buf_bytes",
                    static_cast<double>(net::kSwitchBufBytesPerPort)));

            Topology topo(cfg.seed, point.observe);
            auto &sw = topo.addSwitch("sw", fanout + 1, sw_params);
            auto &host = topo.addHost(cfg, {&sw});
            std::vector<net::TrafficPeer *> senders;
            for (std::uint32_t i = 0; i < fanout; ++i) {
                auto &p = topo.addPeer("snd" + std::to_string(i), sw);
                senders.push_back(&p);
            }
            topo.ctx().events().schedule(
                sim::milliseconds(1), [&host, &senders] {
                    for (auto *p : senders)
                        p->applyWorkload(
                            net::workload::WorkloadSpec{}
                                .overTcp()
                                .toward({host.guestMac(0, 0)})
                                .withClass(
                                    net::workload::FlowClass::saturating()));
                });

            std::vector<FlowBase> base(senders.size());
            topo.run(point.warmup, point.measure, [&] {
                for (std::size_t i = 0; i < senders.size(); ++i)
                    base[i] = flowNow(*senders[i]);
            });

            double secs = sim::toSeconds(point.measure);
            double lo = 0.0, hi = 0.0, sum = 0.0;
            std::uint64_t retrans = 0;
            for (std::size_t i = 0; i < senders.size(); ++i) {
                FlowBase end = flowNow(*senders[i]);
                double mbps = static_cast<double>(end.acked -
                                                  base[i].acked) *
                              8.0 / secs / 1.0e6;
                lo = i == 0 ? mbps : std::min(lo, mbps);
                hi = std::max(hi, mbps);
                sum += mbps;
                retrans += end.retrans - base[i].retrans;
            }
            extra["flow_mbps_min"] = lo;
            extra["flow_mbps_mean"] =
                sum / static_cast<double>(senders.size());
            extra["flow_mbps_max"] = hi;
            extra["sender_retrans"] = static_cast<double>(retrans);
            return topo.report(host);
        });
}

ExperimentSpec
noisyNeighbor()
{
    using Cfg = core::SystemConfig;
    return ExperimentSpec("noisy-neighbor")
        .config("xen", core::SystemConfig::xenIntel(1)
                           .receive()
                           .withNics(1)
                           .transport(core::kTcp))
        .config("cdna", core::SystemConfig::cdna(1)
                            .receive()
                            .withNics(1)
                            .transport(core::kTcp))
        .vary("neighbor",
              {{"alone", [](Cfg &) {}},
               {"noisy",
                [](Cfg &c) { c.withScenario("noisy", 1.0); }}})
        .warmup(sim::milliseconds(10))
        .measure(sim::milliseconds(40))
        .columns({"mbps", "victim_flow_mbps", "victim_retrans", "trunk_drops"})
        .runner([](const RunPoint &point,
                   std::map<std::string, double> &extra) {
            const Cfg &cfg = point.config;
            bool noisy = cfg.scenarioOr("noisy", 0.0) != 0.0;

            Topology topo(cfg.seed, point.observe);
            auto &core_sw = topo.addSwitch("core", 4);
            auto &access = topo.addSwitch("access", 4);
            auto &trunk = topo.link(core_sw, access);
            auto &victim = topo.addHost(cfg, {&access});
            auto &other = topo.addHost(
                core::SystemConfig::cdna(1).receive().withNics(1),
                {&access});
            auto &vsrc = topo.addPeer("vsrc", core_sw);
            auto &nsrc = topo.addPeer("nsrc", core_sw);
            core_sw.setRoute(victim.guestMac(0, 0), trunk.portOnA());
            core_sw.setRoute(other.guestMac(0, 0), trunk.portOnA());
            access.setRoute(vsrc.mac(), trunk.portOnB());
            access.setRoute(nsrc.mac(), trunk.portOnB());

            topo.ctx().events().schedule(
                sim::milliseconds(1),
                [&victim, &other, &vsrc, &nsrc, noisy] {
                    vsrc.applyWorkload(
                        net::workload::WorkloadSpec{}
                            .overTcp()
                            .toward({victim.guestMac(0, 0)})
                            .withClass(
                                net::workload::FlowClass::saturating()));
                    if (noisy)
                        nsrc.applyWorkload(
                            net::workload::WorkloadSpec{}
                                .toward({other.guestMac(0, 0)})
                                .withClass(
                                    net::workload::FlowClass::saturating()));
                });

            FlowBase base;
            std::uint64_t drops0 = 0;
            topo.run(point.warmup, point.measure, [&] {
                base = flowNow(vsrc);
                drops0 = core_sw.totalDrops();
            });
            FlowBase end = flowNow(vsrc);
            extra["victim_flow_mbps"] =
                static_cast<double>(end.acked - base.acked) * 8.0 /
                sim::toSeconds(point.measure) / 1.0e6;
            extra["victim_retrans"] =
                static_cast<double>(end.retrans - base.retrans);
            extra["trunk_drops"] =
                static_cast<double>(core_sw.totalDrops() - drops0);
            return topo.report(victim);
        });
}

ExperimentSpec
swpt()
{
    // The three-way headline: as guest count grows, every architecture
    // multiplexes the same single NIC, but they pay differently --
    // Xen in driver-domain copies, CDNA in per-guest hardware contexts,
    // swpt in doorbell traps + per-descriptor validation.  The swpt_*
    // report keys localize the software cost so the crossover against
    // CDNA is readable directly from the sweep.
    return ExperimentSpec("swpt")
        .config("xen",
                [](std::uint32_t g) {
                    return core::SystemConfig::xenIntel(g).withNics(1);
                })
        .config("cdna",
                [](std::uint32_t g) {
                    return core::SystemConfig::cdna(g).withNics(1);
                })
        .config("swpt",
                [](std::uint32_t g) {
                    return core::SystemConfig::swPassthrough(g).withNics(1);
                })
        .guests({1, 2, 4, 8, 16})
        .directions(true, true)
        .columns({"mbps", "hyp_pct", "swpt_doorbell_traps",
                  "swpt_validation_us"});
}

ExperimentSpec
chaos()
{
    using Cfg = core::SystemConfig;
    core::FaultPlan plan;
    plan.dropping(0.01)
        .corrupting(0.002)
        .duplicating(0.005)
        .delayingDma(0.05, 25.0)
        .stallingFirmware(0, /*at_ms=*/120.0, /*dur_ms=*/5.0)
        .killingGuest(3, /*at_ms=*/250.0);
    return ExperimentSpec("chaos")
        .config("cdna", core::SystemConfig::cdna(4))
        .vary("faults",
              {{"clean", [](Cfg &) {}},
               {"chaos", [plan](Cfg &c) { c.withFaults(plan); }}})
        .columns({"mbps", "frames_dropped", "frames_corrupted",
                  "frames_duplicated", "dma_delays", "firmware_stalls",
                  "guest_kills", "mailbox_timeouts", "ring_resyncs",
                  "dma_violations"});
}

const std::vector<std::pair<std::string, ExperimentSpec (*)()>> &
all()
{
    static const std::vector<std::pair<std::string, ExperimentSpec (*)()>>
        presets = {
            {"table1", table1},
            {"table2", table2},
            {"table3", table3},
            {"table4", table4},
            {"fig3", fig3},
            {"fig4", fig4},
            {"latency", latency},
            {"coalesce", coalesce},
            {"protection", protectionAblation},
            {"contexts", contexts},
            {"iommu", iommu},
            {"flipcopy", flipcopy},
            {"tcp-loss", tcpLoss},
            {"availability", availability},
            {"oversub", oversub},
            {"incast", incast},
            {"noisy-neighbor", noisyNeighbor},
            {"swpt", swpt},
            {"chaos", chaos},
        };
    return presets;
}

std::optional<ExperimentSpec>
byName(const std::string &name)
{
    for (const auto &[key, make] : all())
        if (key == name)
            return make();
    return std::nullopt;
}

} // namespace cdna::sim::presets
