/**
 * @file
 * Software-only passthrough (swpt): behaviour and protection tests.
 *
 * The swpt architecture lets guests program real Intel-style
 * descriptor rings while every doorbell traps into a hypervisor
 * validator that audits the scatter-gather list against page
 * ownership / grant state before shadow-copying the descriptor onto
 * one shared NIC.  The Swpt suite checks the datapath (three-way
 * throughput, fault composition, determinism); the SwptProtection
 * suite runs the forged-descriptor attacks of paper section 3.3
 * against the validator and checks that no disallowed DMA ever
 * reaches memory.
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

Report
quickRun(SystemConfig cfg, sim::Time measure = sim::milliseconds(150))
{
    System sys(std::move(cfg));
    return sys.run(sim::milliseconds(40), measure);
}

SystemConfig
swptConfig(std::uint32_t guests)
{
    return SystemConfig::swPassthrough(guests).withNics(1);
}

} // namespace

// ------------------------------------------------------------ datapath ----

TEST(Swpt, TransmitSaturatesWithValidationCharged)
{
    auto r = quickRun(swptConfig(2));
    EXPECT_GT(r.mbps, 850.0);
    EXPECT_GT(r.swptDoorbellTraps, 0u);
    EXPECT_GT(r.swptDescValidated, 0u);
    EXPECT_EQ(r.swptDescRejected, 0u);
    EXPECT_GT(r.swptValidationUs, 0.0);
    // Validation burns hypervisor CPU that CDNA offloads to hardware.
    EXPECT_GT(r.hypPct, 1.0);
    EXPECT_EQ(r.dmaViolations, 0u);
    EXPECT_EQ(r.protectionFaults, 0u);
}

TEST(Swpt, ReceiveDemuxesToTheRightGuests)
{
    auto r = quickRun(swptConfig(2).receive());
    EXPECT_GT(r.mbps, 850.0);
    ASSERT_EQ(r.perGuestMbps.size(), 2u);
    // Software RX demux splits the shared NIC's stream per MAC.
    EXPECT_GT(r.perGuestMbps[0], 100.0);
    EXPECT_GT(r.perGuestMbps[1], 100.0);
    EXPECT_EQ(r.dmaViolations, 0u);
}

TEST(Swpt, CountersZeroOutsideSwptMode)
{
    for (auto cfg : {SystemConfig::xenIntel(1).withNics(1),
                     SystemConfig::cdna(1).withNics(1)}) {
        auto r = quickRun(cfg, sim::milliseconds(60));
        EXPECT_EQ(r.swptDoorbellTraps, 0u) << r.label;
        EXPECT_EQ(r.swptDescValidated, 0u) << r.label;
        EXPECT_EQ(r.swptDescRejected, 0u) << r.label;
        EXPECT_DOUBLE_EQ(r.swptValidationUs, 0.0) << r.label;
    }
}

TEST(Swpt, BeatsXenCopyPathOnReceiveFanIn)
{
    // Validation is per-descriptor work; netback's copy path is
    // per-byte and serialises all guests through dom0.  With several
    // guests receiving, swpt holds the wire while Xen falls away.
    auto xen = quickRun(SystemConfig::xenIntel(4).withNics(1).receive());
    auto swpt = quickRun(swptConfig(4).receive());
    EXPECT_GT(swpt.mbps, xen.mbps * 1.2);
}

TEST(Swpt, TcpTransportComposes)
{
    auto r = quickRun(swptConfig(1).transport(kTcp));
    EXPECT_GT(r.mbps, 850.0);
    EXPECT_EQ(r.tcpRetransSegs, 0u);
    EXPECT_EQ(r.dmaViolations, 0u);
}

TEST(Swpt, HeaderOnlyDescriptorsAreNotRejected)
{
    // A TX descriptor with an empty scatter-gather list is a
    // header-only frame (a bare ACK): it references no payload memory,
    // so there is nothing to audit and it must pass validation.
    System sys(swptConfig(1));
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(5));

    auto *v = sys.swptValidator(0);
    ASSERT_NE(v, nullptr);
    auto port = v->addGuest(*sys.guestDomain(0),
                            net::MacAddr::fromId(901), [] {});
    std::uint64_t validated_before = v->descValidated();
    std::uint64_t rejected_before = v->descRejected();

    vmm::SwptValidator::TxReq req;
    req.pkt.dst = sys.peer(0).mac();
    req.pkt.payloadBytes = 0;
    std::vector<vmm::SwptValidator::TxReq> batch;
    batch.push_back(std::move(req));
    v->txDoorbell(port, std::move(batch));
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(5));

    // Background guest traffic validates more descriptors in the same
    // window, so only a lower bound holds for the validated counter.
    EXPECT_GE(v->descValidated(), validated_before + 1);
    EXPECT_EQ(v->descRejected(), rejected_before);
}

// --------------------------------------------------- fault composition ----

TEST(Swpt, ValidatorStallRecoversAfterRestart)
{
    // killDriverDomain stalls the hypervisor-resident validator:
    // doorbells latch unprocessed until the restart drains them.  The
    // guests must come back without losing protection state.
    SystemConfig cfg = swptConfig(2).withFaults(
        FaultPlan{}.killingDriverDomain(60.0));
    auto faulted = quickRun(cfg);
    auto healthy = quickRun(swptConfig(2));
    EXPECT_LT(faulted.mbps, healthy.mbps);
    EXPECT_GT(faulted.mbps, 0.3 * healthy.mbps); // restarted and drained
    EXPECT_EQ(faulted.dmaViolations, 0u);
    EXPECT_EQ(faulted.swptDescRejected, 0u);
}

TEST(Swpt, GuestKillLeavesVictimRunning)
{
    SystemConfig cfg = swptConfig(2).withFaults(
        FaultPlan{}.killingGuest(0, 60.0));
    System sys(cfg);
    auto r = sys.run(sim::milliseconds(40), sim::milliseconds(150));
    auto healthy = quickRun(swptConfig(2));

    ASSERT_EQ(r.perGuestMbps.size(), 2u);
    // The dead guest's port is inert; the survivor takes the wire.
    EXPECT_FALSE(sys.swptValidator(0)->guestActive(0));
    EXPECT_LT(r.perGuestMbps[0], 0.5 * healthy.perGuestMbps[0]);
    EXPECT_GE(r.perGuestMbps[1], healthy.perGuestMbps[1]);
    EXPECT_EQ(r.dmaViolations, 0u);
}

TEST(Swpt, FirmwareRebootDropsInFlightAndRecovers)
{
    SystemConfig cfg = swptConfig(2).withFaults(
        FaultPlan{}.rebootingFirmware(0, 60.0));
    auto r = quickRun(cfg);
    // Outage plus recovery: traffic resumes after the reboot delay and
    // the zero-byte in-flight completions recover every TX window.
    EXPECT_GT(r.mbps, 400.0);
    EXPECT_GT(r.swptDoorbellTraps, 0u);
    EXPECT_EQ(r.dmaViolations, 0u);
}

TEST(Swpt, DeterministicAcrossRuns)
{
    auto a = quickRun(swptConfig(2), sim::milliseconds(80));
    auto b = quickRun(swptConfig(2), sim::milliseconds(80));
    EXPECT_DOUBLE_EQ(a.mbps, b.mbps);
    EXPECT_DOUBLE_EQ(a.hypPct, b.hypPct);
    EXPECT_DOUBLE_EQ(a.swptValidationUs, b.swptValidationUs);
    EXPECT_EQ(a.swptDoorbellTraps, b.swptDoorbellTraps);
    EXPECT_EQ(a.swptDescValidated, b.swptDescValidated);
}

// --------------------------------------------- forged-descriptor attacks ----

namespace {

/** Two-guest swpt system; guest 0 is the attacker, 1 the victim.
 *  Returns a validator port fully under the attacker's control
 *  (mirrors a guest writing to its own ring pages directly, without
 *  its driver's cooperation). */
struct SwptAttackRig
{
    System sys;
    vmm::SwptValidator *v;
    vmm::SwptValidator::GuestId port;

    SwptAttackRig()
        : sys(SystemConfig::swPassthrough(2).withNics(1))
    {
        sys.start();
        sys.ctx().events().runUntil(sim::milliseconds(5));
        v = sys.swptValidator(0);
        port = v->addGuest(*sys.guestDomain(0),
                           net::MacAddr::fromId(777), [] {});
    }

    /** Forge one TX descriptor whose sg names @p page. */
    void
    forge(mem::PageNum page)
    {
        vmm::SwptValidator::TxReq req;
        req.sg = {{mem::addrOf(page), 1460}};
        req.pkt.dst = sys.peer(0).mac();
        req.pkt.payloadBytes = 1460;
        req.pkt.hostSg = req.sg;
        std::vector<vmm::SwptValidator::TxReq> batch;
        batch.push_back(std::move(req));
        v->txDoorbell(port, std::move(batch));
        sys.ctx().events().runUntil(sys.ctx().now() +
                                    sim::milliseconds(5));
    }
};

} // namespace

TEST(SwptProtection, ForgedForeignFrameRejected)
{
    SwptAttackRig rig;
    auto *attacker = rig.sys.guestDomain(0);
    auto *victim = rig.sys.guestDomain(1);

    mem::PageNum victim_page = rig.sys.mem().allocOne(victim->id());
    std::uint64_t rejected_before = rig.v->descRejected();
    rig.forge(victim_page);

    EXPECT_EQ(rig.v->descRejected(), rejected_before + 1);
    EXPECT_GE(rig.sys.hv().faultCount(attacker->id(),
                                      vmm::Fault::kNotOwner),
              1u);
    // The rejection surfaced as an error completion, so a real driver's
    // TX window would not leak.
    auto comp = rig.v->takeCompletions(rig.port);
    ASSERT_EQ(comp.count, 1u);
    EXPECT_EQ(comp.bytes.at(0), 0u);
    // The victim's page was never pinned, shadowed, or DMA-touched.
    EXPECT_EQ(rig.sys.mem().refCount(victim_page), 0u);
    EXPECT_EQ(rig.sys.mem().violationCount(), 0u);
}

TEST(SwptProtection, UnmappedGrantPageRejected)
{
    SwptAttackRig rig;
    auto *victim = rig.sys.guestDomain(1);

    // A page that went back to the free pool: the attacker holds no
    // ownership and no grant mapping for it.
    mem::PageNum freed = rig.sys.mem().allocOne(victim->id());
    ASSERT_TRUE(rig.sys.mem().release(freed));
    std::uint64_t rejected_before = rig.v->descRejected();
    rig.forge(freed);

    EXPECT_EQ(rig.v->descRejected(), rejected_before + 1);
    EXPECT_EQ(rig.sys.mem().violationCount(), 0u);
}

TEST(SwptProtection, RevokedQuarantinedPageRejected)
{
    SwptAttackRig rig;
    auto *victim = rig.sys.guestDomain(1);
    auto *dom0 = rig.sys.driverDomain();
    auto &grants = rig.sys.hv().grants();

    // The victim granted a page to dom0, dom0 crashed mid-DMA, and the
    // revocation left the page pinned in quarantine.  The attacker
    // replays a descriptor naming it while it sits there.
    mem::PageNum page = rig.sys.mem().allocOne(victim->id());
    auto ref = grants.grantAccess(victim->id(), dom0->id(), page);
    ASSERT_NE(ref, mem::kInvalidGrant);
    mem::PageNum mapped = 0;
    ASSERT_TRUE(grants.mapGrant(ref, dom0->id(), &mapped));
    auto rs = grants.revokeMappingsOf(dom0->id());
    ASSERT_EQ(rs.quarantined, 1u);

    std::uint64_t rejected_before = rig.v->descRejected();
    rig.forge(page);

    EXPECT_EQ(rig.v->descRejected(), rejected_before + 1);
    // Quarantine is undisturbed: the page stays pinned for the dead
    // mapper's in-flight DMA until the drain, and nothing leaked.
    EXPECT_EQ(grants.quarantinedPages(), 1u);
    EXPECT_GE(rig.sys.mem().refCount(page), 1u);
    EXPECT_EQ(rig.sys.mem().violationCount(), 0u);
}

TEST(SwptProtection, ForeignRxBufferRejected)
{
    // The attacker posts the victim's page as its own RX buffer.  The
    // validator refuses it, so a frame for the attacker's MAC finds no
    // buffer: nothing is copied into the victim's page.
    SwptAttackRig rig;
    auto *attacker = rig.sys.guestDomain(0);
    auto *victim = rig.sys.guestDomain(1);
    auto no_buf = [&rig] {
        return rig.v->stats().findCounter("rx_no_guest_buf")->value();
    };
    const auto not_owner = vmm::Fault::kNotOwner;

    mem::PageNum victim_page = rig.sys.mem().allocOne(victim->id());
    std::uint64_t rejected_before = rig.v->descRejected();
    std::uint64_t faults_before =
        rig.sys.hv().faultCount(attacker->id(), not_owner);
    rig.v->rxDoorbell(rig.port, {victim_page});
    sim::SimContext &ctx = rig.sys.ctx();
    ctx.events().runUntil(ctx.now() + sim::milliseconds(5));
    EXPECT_EQ(rig.v->descRejected(), rejected_before + 1);
    EXPECT_EQ(rig.sys.hv().faultCount(attacker->id(), not_owner),
              faults_before + 1);
    EXPECT_EQ(rig.sys.hv().faultCount(victim->id(), not_owner), 0u);
    EXPECT_EQ(rig.sys.mem().refCount(victim_page), 0u);

    std::uint64_t no_buf_before = no_buf();
    net::Packet pkt;
    pkt.src = rig.sys.peer(0).mac();
    pkt.dst = net::MacAddr::fromId(777);
    pkt.payloadBytes = 1000;
    rig.v->nic().receiveFrame(std::move(pkt));
    ctx.events().runUntil(ctx.now() + sim::milliseconds(5));
    EXPECT_EQ(no_buf(), no_buf_before + 1);
    EXPECT_TRUE(rig.v->takeRx(rig.port).empty());
    EXPECT_TRUE(rig.sys.mem().ownedBy(victim_page, victim->id()));
    EXPECT_EQ(rig.sys.mem().refCount(victim_page), 0u);
    EXPECT_EQ(rig.sys.mem().violationCount(), 0u);
}

TEST(SwptProtection, RejectionsCountedAndVictimUnaffected)
{
    // The attack above, repeated under live traffic and measured
    // through the report: rejections are counted, the victim guest's
    // throughput is preserved, and no violation reaches memory.
    auto healthy = quickRun(swptConfig(2));

    SystemConfig cfg = swptConfig(2);
    System sys(cfg);
    sys.ctx().events().schedule(sim::milliseconds(60), [&sys] {
        auto *v = sys.swptValidator(0);
        auto port = v->addGuest(*sys.guestDomain(0),
                                net::MacAddr::fromId(778), [] {});
        auto *victim = sys.guestDomain(1);
        for (int i = 0; i < 32; ++i) {
            vmm::SwptValidator::TxReq req;
            req.sg = {{mem::addrOf(sys.mem().allocOne(victim->id())),
                       1460}};
            req.pkt.dst = sys.peer(0).mac();
            req.pkt.payloadBytes = 1460;
            std::vector<vmm::SwptValidator::TxReq> batch;
            batch.push_back(std::move(req));
            v->txDoorbell(port, std::move(batch));
        }
    });
    auto r = sys.run(sim::milliseconds(40), sim::milliseconds(150));

    EXPECT_GE(r.swptDescRejected, 32u);
    EXPECT_EQ(r.dmaViolations, 0u);
    ASSERT_EQ(r.perGuestMbps.size(), 2u);
    EXPECT_GE(r.perGuestMbps[1], 0.9 * healthy.perGuestMbps[1]);
}
