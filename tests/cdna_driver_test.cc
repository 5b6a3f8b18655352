/**
 * @file
 * Unit tests for the CDNA guest driver: protected transmit/receive
 * through the hypercall path, doorbells, completion handling, ring
 * flow control, and RX buffer recycling.
 */

#include <gtest/gtest.h>

#include <memory>

#include "core/cdna_driver.hh"
#include "net/eth_link.hh"
#include "net/traffic_peer.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

struct DriverFixture : ::testing::TestWithParam<bool>
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 8192};
    cpu::SimCpu cpu{ctx, "cpu"};
    vmm::Hypervisor hv{ctx, cpu, mem};
    mem::PciBus bus{ctx, "pci"};
    net::EthLink link{ctx, "eth"};
    net::TrafficPeer peer{ctx, "peer", link};
    CostModel costs;
    CdnaNic nic{ctx, "cdna", bus, mem, 0, link,
                [] {
                    CdnaNicParams p;
                    p.seqnoCheck = true;
                    return p;
                }()};

    vmm::Domain *guest = nullptr;
    std::unique_ptr<DmaProtection> prot;
    std::unique_ptr<CdnaGuestDriver> drv;
    vmm::EventChannel *channel = nullptr;

    /** Build the full per-context plumbing the way System does. */
    void
    buildDriver(bool protection)
    {
        guest = &hv.createDomain(vmm::Domain::Kind::kGuest, "g");
        prot = std::make_unique<DmaProtection>(ctx, "dma-protection", hv, costs, protection);
        auto cxt = nic.allocContext(guest->id(), net::MacAddr::fromId(5));
        nic.configureContextRings(
            cxt, 32, mem::addrOf(mem.allocOne(guest->id())), 32,
            mem::addrOf(mem.allocOne(guest->id())));
        nic.setStatusPage(cxt, mem::addrOf(mem.allocOne(guest->id())));
        mem::PageNum intr = mem.allocOne(mem::kDomHypervisor);
        nic.setInterruptRing(mem::addrOf(intr));

        drv = std::make_unique<CdnaGuestDriver>(ctx, "drv", *guest, nic,
                                                cxt, *prot, costs,
                                                net::MacAddr::fromId(5));
        channel = &hv.createChannel(*guest, costs.irqEntry,
                                    [this] { drv->handleIrq(); });
        nic.setIrqLine([this] {
            hv.physicalInterrupt(0, [this] {
                auto *ring = nic.interruptRing();
                while (!ring->empty()) {
                    ring->pop();
                    hv.deliverVirtIrq(*channel);
                }
            });
        });
        drv->attach();
        ctx.events().run(); // initial RX post settles
    }

    net::Packet
    makePacket(std::uint32_t bytes)
    {
        net::Packet p;
        p.src = drv->mac();
        p.dst = peer.mac();
        p.payloadBytes = bytes;
        mem::PageNum page = mem.allocOne(guest->id());
        p.hostSg = {{mem::addrOf(page), bytes}};
        return p;
    }
};

} // namespace

TEST_F(DriverFixture, TransmitThroughProtectedPath)
{
    buildDriver(true);
    for (int i = 0; i < 5; ++i)
        drv->transmit(makePacket(1000));
    drv->flush();
    ctx.events().run();

    EXPECT_EQ(peer.payloadReceived(), 5000u);
    EXPECT_EQ(mem.violationCount(), 0u);
    EXPECT_GE(prot->enqueueCalls(), 1u);
    EXPECT_GE(prot->pagesPinned(), 5u); // every TX page was pinned
    EXPECT_GE(drv->doorbells(), 1u);
}

TEST_F(DriverFixture, TxCompletionsReachTheStack)
{
    buildDriver(true);
    std::uint64_t completed = 0;
    drv->setTxCompleteHandler([&](std::uint64_t b) { completed += b; });
    drv->transmit(makePacket(800));
    drv->transmit(makePacket(800));
    drv->flush();
    ctx.events().run();
    EXPECT_EQ(completed, 1600u);
}

TEST_F(DriverFixture, ReceiveIntoRecycledBuffers)
{
    buildDriver(true);
    std::vector<net::Packet> got;
    drv->setRxHandler([&](net::Packet p) { got.push_back(std::move(p)); });

    net::Packet p;
    p.src = peer.mac();
    p.dst = drv->mac();
    p.payloadBytes = 1200;
    for (int i = 0; i < 40; ++i) // more than one ring lap of 32
        link.port(0).send(p);
    ctx.events().run();

    EXPECT_EQ(got.size(), 40u);
    for (const auto &pkt : got) {
        EXPECT_EQ(pkt.payloadBytes, 1200u);
        ASSERT_FALSE(pkt.hostSg.empty());
        EXPECT_TRUE(mem.ownedBy(mem::pageOf(pkt.hostSg[0].addr),
                                guest->id()));
    }
    EXPECT_EQ(mem.violationCount(), 0u);
    EXPECT_EQ(nic.rxDropNoDesc(), 0u); // recycling kept pace
}

TEST_F(DriverFixture, CanTransmitBoundsInflight)
{
    buildDriver(true);
    int accepted = 0;
    while (drv->canTransmit() && accepted < 100) {
        drv->transmit(makePacket(100));
        ++accepted;
    }
    // Ring of 32: the driver refuses before overflowing it.
    EXPECT_LT(accepted, 32);
    EXPECT_GT(accepted, 16);
    drv->flush();
    ctx.events().run();
    EXPECT_TRUE(drv->canTransmit());
}

TEST_F(DriverFixture, TxSpaceSignaledAfterDrain)
{
    buildDriver(true);
    bool space_signaled = false;
    drv->setTxSpaceHandler([&] { space_signaled = true; });
    while (drv->canTransmit())
        drv->transmit(makePacket(100));
    drv->flush();
    ctx.events().run();
    EXPECT_TRUE(space_signaled);
}

TEST_F(DriverFixture, UnprotectedPathUsesNoHypercalls)
{
    // With protection disabled the System also disables the NIC's
    // sequence checking; the unit fixture's NIC has checking on, so
    // only verify the hypervisor-involvement property here (the
    // functional direct path is covered by the attack tests).
    buildDriver(false);
    EXPECT_FALSE(prot->enabled());
    EXPECT_EQ(hv.hypercallCount(), 0u); // RX posting used direct writes
    EXPECT_EQ(prot->pagesPinned(), 0u); // and pinned nothing
}

TEST_F(DriverFixture, ProtectionPinsFollowTraffic)
{
    buildDriver(true);
    drv->transmit(makePacket(1000));
    drv->flush();
    ctx.events().run();
    // TX page pinned then (after another enqueue's lazy unpin or sync)
    // released; RX buffers remain pinned while posted.
    EXPECT_GT(prot->pagesPinned(), prot->pagesUnpinned());
    // 32 RX buffers remain pinned (posted to the NIC).
    EXPECT_GE(prot->pagesPinned() - prot->pagesUnpinned(), 32u);
}

INSTANTIATE_TEST_SUITE_P(Both, DriverFixture, ::testing::Bool());

TEST_P(DriverFixture, DoorbellsBatchWork)
{
    buildDriver(true);
    for (int i = 0; i < 10; ++i)
        drv->transmit(makePacket(500));
    drv->flush();
    ctx.events().run();
    // One flush => one TX doorbell (plus the RX-post doorbell(s) from
    // attach).
    EXPECT_LE(drv->doorbells(), 4u);
    EXPECT_EQ(peer.payloadReceived(), 5000u);
}
