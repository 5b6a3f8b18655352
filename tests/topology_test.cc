/**
 * @file
 * Multi-host topology tests: the 1-host degenerate case is
 * bit-identical to a standalone System, cross-host TCP traverses
 * guest -> NIC -> switch -> NIC -> guest, multi-host runs are
 * deterministic, every component of every host has a distinct name,
 * and a noisy neighbor on a shared uplink measurably degrades a victim
 * host.
 */

#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/report.hh"
#include "core/system.hh"
#include "net/eth_switch.hh"
#include "sim/topology.hh"

using namespace cdna;

TEST(Topology, SingleHostMatchesStandalone)
{
    // Host 0 of a topology with no external fabrics builds the exact
    // standalone object graph (same names, same MAC block, same event
    // order): the paper's single-host configurations are the 1-host
    // special case, not a separate code path.
    auto cfg = core::SystemConfig::xenIntel(2).withSeed(7);
    core::System alone(cfg);
    auto r1 = alone.run(sim::milliseconds(20), sim::milliseconds(60));

    sim::Topology topo(cfg.seed);
    auto &h = topo.addHost(cfg, {});
    topo.run(sim::milliseconds(20), sim::milliseconds(60));
    auto r2 = topo.report(h);

    EXPECT_EQ(core::reportToJson(r1), core::reportToJson(r2));
}

TEST(Topology, ComponentNamesAreUnique)
{
    // Every component of every host has its own name -- memory,
    // hypervisor, grant table, DMA protection, IOMMU and availability
    // tracker included -- so stats and trace lanes never merge.
    auto cfg = core::SystemConfig::cdna(2).withIommu(
        mem::Iommu::Mode::kPerContext);
    sim::Topology topo;
    topo.addHost(cfg, {});
    topo.addHost(
        cfg.withFaults(core::FaultPlan{}.killingDriverDomain(1)), {});
    topo.run(sim::milliseconds(1), sim::milliseconds(1));
    std::set<std::string> names;
    for (const sim::SimObject *obj : topo.ctx().objects())
        EXPECT_TRUE(names.insert(obj->name()).second) << obj->name();
}

TEST(Topology, CrossHostTcpGuestToGuest)
{
    // A guest on host A opens a closed-loop TCP flow to a guest on
    // host B; every segment and every ACK crosses both hosts' full
    // I/O paths and the switch in between.
    sim::Topology topo;
    auto &sw = topo.addSwitch("sw", 4);
    auto &a = topo.addHost(
        core::SystemConfig::cdna(1).withNics(1).transport(core::kTcp),
        {&sw});
    auto &b = topo.addHost(core::SystemConfig::cdna(1)
                               .receive()
                               .withNics(1)
                               .transport(core::kTcp),
                           {&sw});
    a.stack(0, 0).setDefaultDst(b.guestMac(0, 0));

    topo.run(sim::milliseconds(10), sim::milliseconds(40));
    auto ra = topo.report(a);
    auto rb = topo.report(b);

    // The receiving host's guest actually got a useful fraction of
    // line rate.  Goodput of a cross-host flow is measured where the
    // data is consumed (host B); the sender's side reports the wire
    // throughput its NIC injected.
    EXPECT_GT(rb.mbps, 100.0);
    EXPECT_GT(ra.wireMbps, 100.0);
    EXPECT_EQ(rb.switchDrops, sw.totalDrops());
}

TEST(Topology, ThreeHostRunsAreDeterministic)
{
    auto build_and_run = [] {
        sim::Topology topo(3);
        auto &sw = topo.addSwitch("sw", 8);
        std::vector<core::System *> hosts;
        hosts.push_back(&topo.addHost(
            core::SystemConfig::cdna(1).withNics(1).transport(core::kTcp),
            {&sw}));
        hosts.push_back(&topo.addHost(core::SystemConfig::cdna(1)
                                          .receive()
                                          .withNics(1)
                                          .transport(core::kTcp),
                                      {&sw}));
        hosts.push_back(&topo.addHost(core::SystemConfig::xenIntel(1)
                                          .receive()
                                          .withNics(1)
                                          .transport(core::kTcp),
                                      {&sw}));
        hosts[0]->stack(0, 0).setDefaultDst(hosts[1]->guestMac(0, 0));
        auto &peer = topo.addPeer("ext", sw);
        topo.ctx().events().schedule(sim::milliseconds(1), [&] {
            peer.applyWorkload(
                net::workload::WorkloadSpec{}
                    .overTcp({})
                    .toward({hosts[2]->guestMac(0, 0)})
                    .withClass(net::workload::FlowClass::saturating()));
        });
        topo.run(sim::milliseconds(10), sim::milliseconds(30));
        std::string all;
        for (std::size_t i = 0; i < topo.numHosts(); ++i)
            all += core::reportToJson(topo.report(i));
        return all;
    };
    std::string first = build_and_run();
    std::string second = build_and_run();
    EXPECT_EQ(first, second);
    // Three distinct hosts' flows all made progress.
    EXPECT_NE(first.find("\"label\""), std::string::npos);
}

TEST(Topology, NoisyNeighborOnSharedUplinkDegradesVictim)
{
    // Senders sit on a core switch; the victim and noisy hosts share
    // one access switch fed by a single trunk.  When the noisy
    // sender saturates the trunk with open-loop line-rate traffic,
    // the victim's closed-loop TCP flow loses its share and must
    // retransmit around trunk-queue drops.
    auto victim_mbps = [](bool noisy, std::uint64_t *drops) {
        sim::Topology topo(11);
        auto &core_sw = topo.addSwitch("core", 4);
        auto &access = topo.addSwitch("access", 4);
        auto &trunk = topo.link(core_sw, access);

        auto &victim = topo.addHost(core::SystemConfig::cdna(1)
                                        .receive()
                                        .withNics(1)
                                        .transport(core::kTcp),
                                    {&access});
        auto &other = topo.addHost(core::SystemConfig::cdna(1)
                                       .receive()
                                       .withNics(1),
                                   {&access});
        auto &vsrc = topo.addPeer("vsrc", core_sw);
        auto &nsrc = topo.addPeer("nsrc", core_sw);

        // MACs living behind the trunk must be pinned through it on
        // the sender-side switch.
        core_sw.setRoute(victim.guestMac(0, 0), trunk.portOnA());
        core_sw.setRoute(other.guestMac(0, 0), trunk.portOnA());
        access.setRoute(vsrc.mac(), trunk.portOnB());
        access.setRoute(nsrc.mac(), trunk.portOnB());

        topo.ctx().events().schedule(sim::milliseconds(1), [&] {
            vsrc.applyWorkload(
                net::workload::WorkloadSpec{}
                    .overTcp({})
                    .toward({victim.guestMac(0, 0)})
                    .withClass(net::workload::FlowClass::saturating()));
            if (noisy)
                nsrc.applyWorkload(
                    net::workload::WorkloadSpec{}
                        .toward({other.guestMac(0, 0)})
                        .withClass(net::workload::FlowClass::saturating()));
        });
        topo.run(sim::milliseconds(10), sim::milliseconds(40));
        if (drops)
            *drops = core_sw.totalDrops();
        return topo.report(victim).mbps;
    };

    std::uint64_t drops_alone = 0, drops_noisy = 0;
    double alone = victim_mbps(false, &drops_alone);
    double contended = victim_mbps(true, &drops_noisy);
    EXPECT_GT(alone, 400.0);
    EXPECT_LT(contended, 0.75 * alone);
    EXPECT_EQ(drops_alone, 0u);
    EXPECT_GT(drops_noisy, 0u);
}
