/**
 * @file
 * Security experiments: the attacks of paper section 3.3, run against
 * the full system.  With protection on, every attack is contained and
 * reported; with protection off, the same attacks demonstrably corrupt
 * or disclose other domains' memory (observable as DMA ownership
 * violations and ghost transmissions).
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

/** CDNA system with two guests; guest 0 is the attacker, 1 the victim. */
struct AttackFixture : ::testing::TestWithParam<bool>
{
    SystemConfig
    baseConfig(bool protection)
    {
        SystemConfig cfg = SystemConfig::cdna(2).withProtection(protection);
        cfg.numNics = 1;
        return cfg;
    }
};

} // namespace

TEST_F(AttackFixture, ForeignPageEnqueueRejectedWhenProtected)
{
    System sys(baseConfig(true));
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(5));

    auto *attacker = sys.guestDomain(0);
    auto *victim = sys.guestDomain(1);
    CdnaNic &nic = *sys.cdnaNic(0);

    // The attacker brings up a fresh context and tries to enqueue a
    // descriptor naming the victim's memory through the only interface
    // it has: the protected hypercall.
    auto cxt = nic.allocContext(attacker->id(), net::MacAddr::fromId(777));
    nic.configureContextRings(
        cxt, 8, mem::addrOf(sys.mem().allocOne(attacker->id())), 8,
        mem::addrOf(sys.mem().allocOne(attacker->id())));
    auto handle = sys.protection()->registerRing(nic, cxt,
                                                 attacker->id(), true);

    mem::PageNum victim_page = sys.mem().allocOne(victim->id());
    DmaProtection::Request req;
    req.sg = {{mem::addrOf(victim_page), 1460}};
    DmaProtection::Result res;
    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(std::move(req));
    sys.protection()->enqueue(handle, std::move(reqs),
                              [&](DmaProtection::Result r) { res = r; });
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(5));

    EXPECT_EQ(res.fault, vmm::Fault::kNotOwner);
    EXPECT_EQ(res.accepted, 0u);
    EXPECT_GE(sys.hv().faultCount(attacker->id(), vmm::Fault::kNotOwner),
              1u);
    // The victim's page was never touched by the device.
    EXPECT_EQ(sys.mem().violationCount(), 0u);
}

TEST_F(AttackFixture, ProducerOverrunCaughtBySeqno)
{
    System sys(baseConfig(true));
    sys.start();
    // Let real traffic flow so the rings hold stale-but-once-valid
    // descriptors.
    sys.ctx().events().runUntil(sim::milliseconds(30));

    auto *drv = sys.cdnaDriver(0, 0);
    ASSERT_NE(drv, nullptr);
    CdnaNic &nic = *sys.cdnaNic(0);
    auto cxt = drv->context();
    ASSERT_FALSE(nic.contextFaulted(cxt));

    // Malicious doorbell: advertise descriptors that were never
    // enqueued through the hypervisor.
    std::uint64_t faults_before = nic.seqnoFaults();
    nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, 0xFFFFu);
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(5));

    EXPECT_TRUE(nic.contextFaulted(cxt));
    EXPECT_GT(nic.seqnoFaults(), faults_before);
    EXPECT_GE(sys.hv().faultCount(sys.guestDomain(0)->id(),
                                  vmm::Fault::kBadSeqno),
              1u);
    // The faulted context stopped; no memory was disclosed.
    EXPECT_EQ(sys.mem().violationCount(), 0u);

    // The victim guest's context is unaffected and keeps transmitting.
    auto *victim_drv = sys.cdnaDriver(1, 0);
    EXPECT_FALSE(nic.contextFaulted(victim_drv->context()));
}

TEST_F(AttackFixture, ProducerOverrunDisclosesMemoryWhenUnprotected)
{
    System sys(baseConfig(false));
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(5));

    auto *attacker = sys.guestDomain(0);
    CdnaNic &nic = *sys.cdnaNic(0);

    // A context with a few consumed descriptors...
    auto cxt = nic.allocContext(attacker->id(), net::MacAddr::fromId(778));
    nic.configureContextRings(
        cxt, 8, mem::addrOf(sys.mem().allocOne(attacker->id())), 8,
        mem::addrOf(sys.mem().allocOne(attacker->id())));
    for (std::uint32_t i = 0; i < 4; ++i) {
        mem::PageNum page = sys.mem().allocOne(attacker->id());
        nic::DmaDescriptor d;
        d.sg = {{mem::addrOf(page), 800}};
        d.flags = nic::kDescValid | nic::kDescEop;
        net::Packet p;
        p.dst = sys.peer(0).mac();
        p.payloadBytes = 800;
        p.hostSg = d.sg;
        nic.txRing(cxt).write(i, d);
        nic.txRing(cxt).attachPacket(i, std::move(p));
    }
    nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, 4);
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(15));
    EXPECT_EQ(nic.txConsumer(cxt), 4u);

    // ...then the driver bumps the producer past the last valid entry.
    std::uint64_t ghosts_before = nic.ghostTxCount();
    nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, 6);
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(15));

    // With no sequence check, the NIC happily walks the never-written
    // slots and transmits from memory the attacker never provided.
    EXPECT_FALSE(nic.contextFaulted(cxt));
    EXPECT_EQ(nic.ghostTxCount(), ghosts_before + 2);
}

namespace {

/** Set up a fresh hardware context fully under the attacker's control
 *  and aim one direct-written descriptor at the victim's page. */
CdnaNic::ContextId
craftDirectAttack(System &sys, mem::PageNum victim_page)
{
    auto *attacker = sys.guestDomain(0);
    CdnaNic &nic = *sys.cdnaNic(0);
    auto cxt = nic.allocContext(attacker->id(), net::MacAddr::fromId(777));
    nic.configureContextRings(
        cxt, 8, mem::addrOf(sys.mem().allocOne(attacker->id())), 8,
        mem::addrOf(sys.mem().allocOne(attacker->id())));

    nic::DmaDescriptor d;
    d.sg = {{mem::addrOf(victim_page), 1460}};
    d.flags = nic::kDescValid | nic::kDescEop;
    nic.txRing(cxt).write(0, d);
    // No packet attached: the NIC will transmit whatever the victim's
    // memory holds (a ghost frame) if the DMA is allowed through.
    nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, 1);
    return cxt;
}

} // namespace

TEST_F(AttackFixture, DirectForeignDmaCorruptsWhenUnprotected)
{
    // Without hypervisor validation, the attacker writes a descriptor
    // naming the victim's page straight into its ring: classic 2007-era
    // x86 DMA, and exactly the hole CDNA closes.
    System sys(baseConfig(false));
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(5));

    auto *attacker = sys.guestDomain(0);
    auto *victim = sys.guestDomain(1);
    mem::PageNum victim_page = sys.mem().allocOne(victim->id());
    craftDirectAttack(sys, victim_page);
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(5));

    // The device read the victim's memory on the attacker's behalf.
    EXPECT_GE(sys.mem().violationCount(), 1u);
    bool found = false;
    for (const auto &v : sys.mem().violations())
        if (v.page == victim_page && v.expected == attacker->id() &&
            v.actual == victim->id())
            found = true;
    EXPECT_TRUE(found);
    EXPECT_GT(sys.cdnaNic(0)->ghostTxCount(), 0u);
}

TEST_F(AttackFixture, PerContextIommuBlocksDirectForeignDma)
{
    // Section 5.3: with a context-aware IOMMU, even the unprotected
    // direct path cannot reach foreign memory.
    SystemConfig cfg = SystemConfig::cdna(2).withProtection(false);
    cfg.numNics = 1;
    cfg.iommuMode = mem::Iommu::Mode::kPerContext;
    System sys(cfg);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(5));

    auto *attacker = sys.guestDomain(0);
    auto *victim = sys.guestDomain(1);
    mem::PageNum victim_page = sys.mem().allocOne(victim->id());
    auto cxt = craftDirectAttack(sys, victim_page);
    sys.iommu()->bindContext(0, cxt, attacker->id());
    std::uint64_t blocked_before = sys.iommu()->blockedCount();
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(5));

    EXPECT_GT(sys.iommu()->blockedCount(), blocked_before);
    // The IOMMU suppressed the access: no violation recorded.
    EXPECT_EQ(sys.mem().violationCount(), 0u);
}

TEST_F(AttackFixture, RevokedContextStopsOperating)
{
    System sys(baseConfig(true));
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(20));

    CdnaNic &nic = *sys.cdnaNic(0);
    auto *drv = sys.cdnaDriver(0, 0);
    auto cxt = drv->context();
    std::uint64_t tx_before = nic.txPackets();
    ASSERT_GT(tx_before, 0u);

    // The hypervisor revokes the attacker's context (section 3.1:
    // "the hypervisor can also revoke a context at any time").
    nic.revokeContext(cxt);
    EXPECT_FALSE(nic.contextAllocated(cxt));

    // Frames to the revoked context's MAC are now dropped, and the
    // victim continues unharmed.
    auto *victim_drv = sys.cdnaDriver(1, 0);
    EXPECT_TRUE(nic.contextAllocated(victim_drv->context()));
}

TEST_F(AttackFixture, DoorbellFloodIsThrottledAndContained)
{
    // A malicious guest hammers its mailbox with PIO writes, trying to
    // burn firmware time decoding doorbells and starve the victim.
    // The per-context storm guard coalesces everything beyond the
    // burst allowance into one deferred event per window, so only the
    // attacker's own doorbells are delayed.
    System base(baseConfig(true));
    Report rb = base.run(sim::milliseconds(50), sim::milliseconds(100));
    ASSERT_EQ(rb.perGuestMbps.size(), 2u);

    System sys(baseConfig(true));
    sys.ctx().events().schedule(sim::milliseconds(60), [&sys] {
        CdnaNic &nic = *sys.cdnaNic(0);
        auto cxt = nic.allocContext(sys.guestDomain(0)->id(),
                                    net::MacAddr::fromId(779));
        nic.configureContextRings(
            cxt, 8,
            mem::addrOf(sys.mem().allocOne(sys.guestDomain(0)->id())), 8,
            mem::addrOf(sys.mem().allocOne(sys.guestDomain(0)->id())));
        // Producer stays at 0: each write is a no-op doorbell whose
        // only effect is the firmware decode cost the guard bounds.
        for (int i = 0; i < 2000; ++i)
            nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, 0);
    });
    Report rk = sys.run(sim::milliseconds(50), sim::milliseconds(100));

    // The guard engaged (2000 writes in one window >> the allowance)...
    EXPECT_GT(sys.cdnaNic(0)->mailboxThrottled(), 1000u);
    EXPECT_GT(rk.mailboxThrottled, 1000u);
    // ...the storming context never faulted anyone else, and the
    // victim's throughput is preserved.
    EXPECT_EQ(rk.dmaViolations, 0u);
    ASSERT_EQ(rk.perGuestMbps.size(), 2u);
    EXPECT_GE(rk.perGuestMbps[1], 0.9 * rb.perGuestMbps[1]);
}

INSTANTIATE_TEST_SUITE_P(Protection, AttackFixture, ::testing::Bool());

TEST_P(AttackFixture, NormalTrafficNeverViolatesRegardlessOfProtection)
{
    // Well-behaved guests never trigger violations, protected or not.
    System sys(baseConfig(GetParam()));
    auto r = sys.run(sim::milliseconds(30), sim::milliseconds(100));
    EXPECT_EQ(r.dmaViolations, 0u);
    EXPECT_EQ(r.protectionFaults, 0u);
    EXPECT_GT(r.mbps, 500.0);
}
