/**
 * @file
 * Integration tests: full systems in each I/O architecture, exercising
 * the whole stack (apps, OS, hypervisor, NICs, links, peer) and
 * checking cross-cutting invariants -- throughput ordering, profile
 * accounting closure, determinism, packet conservation, fairness.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/system.hh"
#include "sim/sweep.hh"
#include "sim/sweep_presets.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

Report
quickRun(SystemConfig cfg, sim::Time measure = sim::milliseconds(150))
{
    System sys(std::move(cfg));
    return sys.run(sim::milliseconds(40), measure);
}

} // namespace

// --------------------------------------------------------- basic runs ----

TEST(SystemIntegration, NativeTransmitsNearLineRate)
{
    auto r = quickRun(SystemConfig::native(2));
    EXPECT_GT(r.mbps, 1700.0);
    EXPECT_LE(r.mbps, 1900.0);
    EXPECT_EQ(r.protectionFaults, 0u);
    EXPECT_EQ(r.dmaViolations, 0u);
}

TEST(SystemIntegration, XenIntelTransmitCpuBound)
{
    auto r = quickRun(SystemConfig::xenIntel(1));
    EXPECT_GT(r.mbps, 1300.0);
    EXPECT_LT(r.mbps, 1800.0);
    EXPECT_LT(r.idlePct, 5.0); // saturated, as in the paper
    EXPECT_GT(r.drvOsPct, 20.0); // driver domain does real work
    EXPECT_EQ(r.dmaViolations, 0u);
}

TEST(SystemIntegration, XenRiceNicWorks)
{
    auto r = quickRun(SystemConfig::xenRice(1));
    EXPECT_GT(r.mbps, 800.0);
    EXPECT_EQ(r.dmaViolations, 0u);
    EXPECT_EQ(r.protectionFaults, 0u);
}

TEST(SystemIntegration, CdnaTransmitSaturatesWithIdleTime)
{
    auto r = quickRun(SystemConfig::cdna(1));
    EXPECT_GT(r.mbps, 1840.0);
    EXPECT_GT(r.idlePct, 40.0); // the paper's headline efficiency win
    EXPECT_LT(r.drvOsPct, 2.0); // driver domain out of the data path
    EXPECT_NEAR(r.drvIntrPerSec, 0.0, 1.0); // zero driver interrupts
    EXPECT_GT(r.guestIntrPerSec, 1000.0);
    EXPECT_EQ(r.dmaViolations, 0u);
}

TEST(SystemIntegration, CdnaReceiveSaturatesWithIdleTime)
{
    auto r = quickRun(SystemConfig::cdna(1).receive());
    EXPECT_GT(r.mbps, 1840.0);
    EXPECT_GT(r.idlePct, 35.0);
    EXPECT_EQ(r.dmaViolations, 0u);
}

TEST(SystemIntegration, XenReceiveSlowerThanCdna)
{
    auto xen = quickRun(SystemConfig::xenIntel(1).receive());
    auto cdna = quickRun(SystemConfig::cdna(1).receive());
    EXPECT_GT(cdna.mbps, xen.mbps * 1.3);
}

// ------------------------------------------------------- invariants ----

TEST(SystemIntegration, ProfileSumsToHundredPercent)
{
    for (auto cfg : {SystemConfig::xenIntel(2), SystemConfig::xenRice(2)}) {
        auto r = quickRun(cfg);
        double total = r.hypPct + r.drvOsPct + r.drvUserPct +
                       r.guestOsPct + r.guestUserPct + r.idlePct;
        EXPECT_NEAR(total, 100.0, 1.5) << r.label;
    }
    auto r = quickRun(SystemConfig::cdna(2).receive());
    double total = r.hypPct + r.drvOsPct + r.drvUserPct + r.guestOsPct +
                   r.guestUserPct + r.idlePct;
    EXPECT_NEAR(total, 100.0, 1.5);
}

TEST(SystemIntegration, DeterministicAcrossRuns)
{
    auto a = quickRun(SystemConfig::cdna(2), sim::milliseconds(80));
    auto b = quickRun(SystemConfig::cdna(2), sim::milliseconds(80));
    EXPECT_DOUBLE_EQ(a.mbps, b.mbps);
    EXPECT_DOUBLE_EQ(a.hypPct, b.hypPct);
    EXPECT_DOUBLE_EQ(a.guestIntrPerSec, b.guestIntrPerSec);
    EXPECT_DOUBLE_EQ(a.domainSwitchPerSec, b.domainSwitchPerSec);
}

TEST(SystemIntegration, PacketConservationOnTransmit)
{
    // Everything the guests' stacks emitted either reached the peer or
    // is still in flight (bounded by ring/buffer capacity).
    SystemConfig cfg = SystemConfig::cdna(2);
    System sys(cfg);
    sys.run(sim::milliseconds(40), sim::milliseconds(120));
    std::uint64_t sent = 0;
    for (std::uint32_t g = 0; g < 2; ++g)
        for (std::uint32_t n = 0; n < 2; ++n)
            sent += sys.stack(g, n).txBytes();
    std::uint64_t received = 0;
    for (std::uint32_t n = 0; n < 2; ++n)
        received += sys.peer(n).payloadReceived();
    EXPECT_LE(received, sent);
    // In-flight bound: 2 rings x 256 descriptors x MSS per interface.
    std::uint64_t bound = 4ull * 256 * net::kMss + 4ull * 512 * 1024;
    EXPECT_LE(sent - received, bound);
}

TEST(SystemIntegration, KillGuestOutOfRangeIsNoOp)
{
    // Guest 2 of 2 does not exist.  On a two-NIC host its port index
    // would alias guest 0's port on NIC 1, which the kill must leave
    // alone, like every other port.
    for (SystemConfig cfg :
         {SystemConfig::cdna(2), SystemConfig::swPassthrough(2)}) {
        cfg.withNics(2).withFaults(FaultPlan{}.killingGuest(2, 10.0));
        System sys(cfg);
        Report r = sys.run(sim::milliseconds(5), sim::milliseconds(20));
        EXPECT_EQ(r.guestKills, 0u) << r.label;
        EXPECT_GT(r.mbps, 0.0) << r.label;
        for (std::uint32_t g = 0; g < 2; ++g) {
            for (std::uint32_t n = 0; n < 2; ++n) {
                CdnaGuestDriver *cdna = sys.cdnaDriver(g, n);
                os::SwptDriver *swpt = sys.swptDriver(g, n);
                ASSERT_TRUE(cdna || swpt) << r.label;
                EXPECT_FALSE(cdna && cdna->detached()) << r.label;
                EXPECT_FALSE(swpt && swpt->detached()) << r.label;
            }
        }
    }
}

TEST(SystemIntegration, CdnaTransmitBacklogIsNotEvents)
{
    // fig3's 24-guest CDNA transmit cell stages megabytes of frames in
    // the NICs' buffers.  Frames waiting for the wire sit in the wire's
    // FIFOs, not in the event heap: only each FIFO's head is armed.
    auto spec = sim::presets::byName("fig3");
    ASSERT_TRUE(spec.has_value());
    std::vector<sim::RunPoint> points = spec->expand();
    auto cell = std::find_if(points.begin(), points.end(),
                             [](const sim::RunPoint &p) {
                                 return p.cell == "cdna/g24";
                             });
    ASSERT_NE(cell, points.end());
    System sys(cell->config.withSeed(1));
    sys.start();
    sim::EventQueue &eq = sys.ctx().events();
    eq.runUntil(sim::milliseconds(20));
    std::size_t peak = 0;
    for (int ms = 21; ms <= 120; ++ms) {
        eq.runUntil(sim::milliseconds(ms));
        peak = std::max(peak, eq.pendingCount());
    }
    EXPECT_LT(peak, 200u);
}

TEST(SystemIntegration, TimerTicksAreOneEventPerHost)
{
    // Every domain has a 10 ms timer tick, but only the host's earliest
    // is an armed event: more guests add no depth to the event heap.
    for (auto make : {&SystemConfig::xenIntel, &SystemConfig::cdna}) {
        System one(make(1));
        System many(make(24));
        EXPECT_EQ(many.ctx().events().pendingCount(),
                  one.ctx().events().pendingCount())
            << many.config().effectiveLabel();
    }
}

TEST(SystemIntegration, CdnaFairAcrossGuests)
{
    auto r = quickRun(SystemConfig::cdna(4), sim::milliseconds(300));
    ASSERT_EQ(r.perGuestMbps.size(), 4u);
    EXPECT_GT(r.fairness(), 0.85);
    double sum = 0;
    for (double m : r.perGuestMbps)
        sum += m;
    EXPECT_NEAR(sum, r.mbps, r.mbps * 0.02);
}

TEST(SystemIntegration, ThroughputOrderingMatchesPaper)
{
    // CDNA > Xen in both directions (Tables 2-3).
    auto xen_tx = quickRun(SystemConfig::xenIntel(1));
    auto cdna_tx = quickRun(SystemConfig::cdna(1));
    EXPECT_GT(cdna_tx.mbps, xen_tx.mbps);
    auto xen_rx = quickRun(SystemConfig::xenIntel(1).receive());
    auto cdna_rx = quickRun(SystemConfig::cdna(1).receive());
    EXPECT_GT(cdna_rx.mbps, xen_rx.mbps);
}

TEST(SystemIntegration, XenDeclinesWithGuestsCdnaDoesNot)
{
    auto xen1 = quickRun(SystemConfig::xenIntel(1));
    auto xen8 = quickRun(SystemConfig::xenIntel(8));
    EXPECT_LT(xen8.mbps, xen1.mbps * 0.8);

    auto cdna1 = quickRun(SystemConfig::cdna(1));
    auto cdna8 = quickRun(SystemConfig::cdna(8));
    EXPECT_GT(cdna8.mbps, cdna1.mbps * 0.95);
    EXPECT_LT(cdna8.idlePct, cdna1.idlePct);
}

TEST(SystemIntegration, ProtectionOffSameThroughputLessHypervisor)
{
    // Table 4: disabling DMA protection changes efficiency, not
    // bandwidth.
    auto on = quickRun(SystemConfig::cdna(1));
    auto off = quickRun(SystemConfig::cdna(1).withProtection(false));
    EXPECT_NEAR(on.mbps, off.mbps, on.mbps * 0.01);
    EXPECT_LT(off.hypPct, on.hypPct - 4.0);
    EXPECT_GT(off.idlePct, on.idlePct + 3.0);
}

TEST(SystemIntegration, PerContextIommuCarriesTraffic)
{
    SystemConfig cfg = SystemConfig::cdna(2);
    cfg.iommuMode = mem::Iommu::Mode::kPerContext;
    System sys(cfg);
    auto r = sys.run(sim::milliseconds(40), sim::milliseconds(120));
    EXPECT_GT(r.mbps, 1800.0);
    ASSERT_NE(sys.iommu(), nullptr);
    EXPECT_EQ(sys.iommu()->blockedCount(), 0u);
    EXPECT_EQ(r.dmaViolations, 0u);
}

TEST(SystemIntegration, PerDeviceIommuInsufficientForCdna)
{
    // Section 5.3's argument: a per-device IOMMU cannot express
    // "context k belongs to guest k"; with several guests it blocks
    // legitimate traffic.
    SystemConfig cfg = SystemConfig::cdna(2);
    cfg.iommuMode = mem::Iommu::Mode::kPerDevice;
    System sys(cfg);
    auto r = sys.run(sim::milliseconds(40), sim::milliseconds(120));
    EXPECT_GT(sys.iommu()->blockedCount(), 0u);
    (void)r;
}

TEST(SystemIntegration, GuestIntrRateTracksCoalescing)
{
    // Halving the coalescing window roughly doubles the interrupt rate
    // (the paper tuned this knob per experiment).
    SystemConfig slow = SystemConfig::cdna(1);
    slow.costs.cdnaCoalesce = sim::microseconds(290);
    SystemConfig fast = SystemConfig::cdna(1);
    fast.costs.cdnaCoalesce = sim::microseconds(145);
    auto rs = quickRun(std::move(slow));
    auto rf = quickRun(std::move(fast));
    EXPECT_NEAR(rf.guestIntrPerSec / rs.guestIntrPerSec, 2.0, 0.35);
}

TEST(SystemIntegration, NoRxDropsOnTransmitTests)
{
    auto r = quickRun(SystemConfig::cdna(1));
    EXPECT_EQ(r.rxDropsNoDesc, 0u);
}

TEST(SystemIntegration, XenGrantsBalance)
{
    SystemConfig cfg = SystemConfig::xenIntel(1);
    System sys(cfg);
    sys.run(sim::milliseconds(40), sim::milliseconds(100));
    // Grants are created and retired continuously; the number still
    // live is bounded by the ring capacity (not growing with time).
    EXPECT_LT(sys.hv().grants().activeGrants(), 4u * 256u * 16u);
}

TEST(SystemIntegration, ReportFairnessHelper)
{
    Report r;
    r.perGuestMbps = {100.0, 50.0};
    EXPECT_DOUBLE_EQ(r.fairness(), 0.5);
    Report empty;
    EXPECT_DOUBLE_EQ(empty.fairness(), 1.0);
    Report zero;
    zero.perGuestMbps = {0.0, 0.0};
    EXPECT_DOUBLE_EQ(zero.fairness(), 1.0);
}

TEST(SystemIntegration, ReportRowContainsLabelAndRate)
{
    SystemConfig cfg = SystemConfig::cdna(1);
    System sys(cfg);
    auto r = sys.run(sim::milliseconds(40), sim::milliseconds(80));
    std::string row = r.row();
    EXPECT_NE(row.find("cdna/tx"), std::string::npos);
    EXPECT_FALSE(Report::header().empty());
}

TEST(SystemIntegration, ReportRowLinesUpWithHeader)
{
    Report r;
    r.label = "cdna/tx";
    r.mbps = 1867.9;
    r.idlePct = 51.03;
    r.guestIntrPerSec = 13360;
    std::string row = r.row();
    EXPECT_EQ(row.size(), Report::header().size()) << row;
    EXPECT_NE(row.find(" 1868 "), std::string::npos) << row;
    EXPECT_NE(row.find(" 51.0 "), std::string::npos) << row;
}

TEST(SystemIntegration, CopyModeNetbackCarriesTraffic)
{
    // Copy-mode replaces the flip hypercall with a driver-domain memcpy
    // plus grant map/unmap; functionally the guest still receives into
    // its own pages, and no flips occur.
    SystemConfig cfg = SystemConfig::xenIntel(1).receive();
    cfg.xenRxCopyMode = true;
    System sys(cfg);
    auto r = sys.run(sim::milliseconds(40), sim::milliseconds(150));
    EXPECT_GT(r.mbps, 800.0);
    EXPECT_EQ(r.dmaViolations, 0u);
    EXPECT_EQ(sys.hv().grants().flipCount(), 0u);
}

TEST(SystemIntegration, FlipModeActuallyFlips)
{
    SystemConfig cfg = SystemConfig::xenIntel(1).receive();
    System sys(cfg);
    sys.run(sim::milliseconds(40), sim::milliseconds(100));
    EXPECT_GT(sys.hv().grants().flipCount(), 1000u);
}

TEST(SystemIntegration, BridgeDropsUnknownMacAndRepostsItsBuffer)
{
    // A frame for a MAC no vif owns is dropped at the bridge, and its
    // NIC buffer page goes straight back onto the RX ring: a burst
    // larger than the 256-entry ring never runs the NIC out of
    // descriptors.
    System sys(SystemConfig::xenIntel(2));
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(20));
    net::TrafficPeer &peer = sys.peer(0);
    for (int i = 0; i < 300; ++i) {
        net::Packet p;
        p.src = peer.mac();
        p.dst = net::MacAddr::fromId(0xABCDEFu);
        p.payloadBytes = 1000;
        peer.port().send(std::move(p));
    }
    sys.ctx().events().runUntil(sim::milliseconds(60));

    const sim::Counter *no_vif = nullptr;
    for (const sim::SimObject *obj : sys.ctx().objects())
        if (obj->name() == "ddn0")
            no_vif = obj->stats().findCounter("bridge_no_vif");
    ASSERT_NE(no_vif, nullptr);
    EXPECT_EQ(no_vif->value(), 300u);
    EXPECT_EQ(sys.intelNic(0)->rxDropNoDesc(), 0u);
}
