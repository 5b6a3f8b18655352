/**
 * @file
 * Runtime context revocation (paper section 3.1: "the hypervisor can
 * also revoke a context at any time by notifying the NIC, which will
 * shut down all pending operations associated with the indicated
 * context").
 */

#include <gtest/gtest.h>

#include "core/system.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

struct RevocationFixture : ::testing::Test
{
    SystemConfig
    config()
    {
        SystemConfig cfg = SystemConfig::cdna(2);
        cfg.numNics = 1;
        return cfg;
    }
};

} // namespace

TEST_F(RevocationFixture, MidTrafficRevocationIsClean)
{
    System sys(config());
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(30));

    CdnaNic &nic = *sys.cdnaNic(0);
    auto *drv0 = sys.cdnaDriver(0, 0);
    auto cxt0 = drv0->context();
    std::uint64_t peer_before = sys.peer(0).payloadReceived();

    ASSERT_TRUE(sys.revokeGuestContext(0, 0));
    EXPECT_TRUE(drv0->detached());
    EXPECT_FALSE(nic.contextAllocated(cxt0));

    // The system keeps running without panics; the surviving guest
    // keeps transmitting.
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(50));
    std::uint64_t peer_after = sys.peer(0).payloadReceived();
    EXPECT_GT(peer_after, peer_before);
    EXPECT_EQ(sys.mem().violationCount(), 0u);
}

TEST_F(RevocationFixture, RevocationDropsAllDmaPins)
{
    System sys(config());
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(30));

    std::uint64_t pinned = sys.protection()->pagesPinned();
    std::uint64_t unpinned = sys.protection()->pagesUnpinned();
    EXPECT_GT(pinned, unpinned); // live pins exist (posted RX buffers)

    ASSERT_TRUE(sys.revokeGuestContext(0, 0));
    ASSERT_TRUE(sys.revokeGuestContext(1, 0));
    // Let in-flight hypercalls and DMA drain.
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(20));

    // Every pin was dropped at detach (plus whatever the other guest's
    // teardown released); the guests' pages are reclaimable again.
    EXPECT_EQ(sys.protection()->pagesPinned(),
              sys.protection()->pagesUnpinned());
}

TEST_F(RevocationFixture, RevokedSlotIsReusable)
{
    System sys(config());
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(10));

    CdnaNic &nic = *sys.cdnaNic(0);
    auto cxt0 = sys.cdnaDriver(0, 0)->context();
    std::uint32_t before = nic.allocatedContexts();
    ASSERT_TRUE(sys.revokeGuestContext(0, 0));
    EXPECT_EQ(nic.allocatedContexts(), before - 1);

    auto fresh = nic.allocContext(sys.guestDomain(1)->id(),
                                  net::MacAddr::fromId(555));
    EXPECT_EQ(fresh, cxt0);
}

TEST_F(RevocationFixture, DoubleRevokeIsRejected)
{
    System sys(config());
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(5));
    EXPECT_TRUE(sys.revokeGuestContext(0, 0));
    EXPECT_FALSE(sys.revokeGuestContext(0, 0));
    EXPECT_FALSE(sys.revokeGuestContext(9, 0));
    EXPECT_FALSE(sys.revokeGuestContext(0, 7));
}

TEST_F(RevocationFixture, FramesToRevokedMacAreDropped)
{
    System sys(config());
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(10));

    CdnaNic &nic = *sys.cdnaNic(0);
    ASSERT_TRUE(sys.revokeGuestContext(0, 0));

    std::uint64_t drops_before = nic.rxDropFilter();
    net::Packet p;
    p.dst = net::MacAddr::fromId(0x010000u); // guest 0, nic 0's MAC
    p.payloadBytes = 500;
    nic.receiveFrame(p); // as if it had just arrived from the wire
    EXPECT_EQ(nic.rxDropFilter(), drops_before + 1);
}

TEST_F(RevocationFixture, RevokeUnderActiveDmaReclaimsAllPins)
{
    // Revoke one guest very early, while its first transfers (and the
    // enqueue hypercalls pinning their pages) are still in flight.
    System sys(config());
    sys.start();
    sys.ctx().events().runUntil(sim::microseconds(2500.0));
    ASSERT_GT(sys.protection()->pagesPinned(),
              sys.protection()->pagesUnpinned());

    ASSERT_TRUE(sys.revokeGuestContext(0, 0));
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(30));
    ASSERT_TRUE(sys.revokeGuestContext(1, 0));
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(20));

    EXPECT_EQ(sys.protection()->pagesPinned(),
              sys.protection()->pagesUnpinned());
    EXPECT_EQ(sys.mem().violationCount(), 0u);
}

TEST_F(RevocationFixture, SurvivorThroughputUnaffectedByMidRunKill)
{
    sim::Time warmup = sim::milliseconds(100);
    sim::Time measure = sim::milliseconds(300);

    System base(config());
    Report rb = base.run(warmup, measure);
    ASSERT_EQ(rb.perGuestMbps.size(), 2u);

    SystemConfig cfg = config();
    cfg.withFaults(FaultPlan{}.killingGuest(1, /*at_ms=*/150.0));
    System killed(cfg);
    Report rk = killed.run(warmup, measure);

    EXPECT_EQ(rk.guestKills, 1u);
    EXPECT_EQ(rk.dmaViolations, 0u);
    // The survivor keeps (at least) its two-guest share of the wire.
    EXPECT_GE(rk.perGuestMbps[0], 0.9 * rb.perGuestMbps[0]);
    // The killed guest's pins were reclaimed: once the survivor is
    // revoked too, every pin ever taken has been dropped.
    ASSERT_TRUE(killed.revokeGuestContext(0, 0));
    killed.ctx().events().runUntil(killed.ctx().now() +
                                   sim::milliseconds(20));
    EXPECT_EQ(killed.protection()->pagesPinned(),
              killed.protection()->pagesUnpinned());
}

TEST_F(RevocationFixture, XenModeHasNoContextsToRevoke)
{
    SystemConfig cfg = SystemConfig::xenIntel(1);
    System sys(cfg);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(5));
    EXPECT_FALSE(sys.revokeGuestContext(0, 0));
}
