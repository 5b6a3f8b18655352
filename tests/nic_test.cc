/**
 * @file
 * Unit tests for NIC building blocks: descriptor rings, the mailbox
 * event bit-vector hierarchy, packet buffer pools, firmware processor,
 * and the conventional IntelNic datapaths.
 */

#include <gtest/gtest.h>

#include "mem/phys_memory.hh"
#include "net/eth_link.hh"
#include "net/traffic_peer.hh"
#include "nic/desc_ring.hh"
#include "nic/firmware.hh"
#include "nic/intel_nic.hh"
#include "nic/mailbox.hh"
#include "nic/packet_buffer.hh"
#include "sim/sim_object.hh"

using namespace cdna;
using namespace cdna::nic;

// ------------------------------------------------------------ descring ----

TEST(DescRing, SlotWrapAndAddresses)
{
    DescRing ring(8, 0x10000);
    EXPECT_EQ(ring.size(), 8u);
    EXPECT_EQ(ring.slotOf(0), 0u);
    EXPECT_EQ(ring.slotOf(9), 1u);
    EXPECT_EQ(ring.fetchSg(0, 1).front().addr, 0x10000u);
    EXPECT_EQ(ring.fetchSg(8, 1).front().addr, 0x10000u); // wrapped
    EXPECT_EQ(ring.fetchSg(3, 1).front().addr, 0x10000u + 3 * kDescBytes);
    // A fetch across the wrap reads the tail slots, then the head ones.
    mem::SgList sg = ring.fetchSg(6, 4);
    ASSERT_EQ(sg.size(), 2u);
    EXPECT_EQ(sg[0].addr, 0x10000u + 6 * kDescBytes);
    EXPECT_EQ(sg[0].len, 2 * kDescBytes);
    EXPECT_EQ(sg[1].addr, 0x10000u);
    EXPECT_EQ(sg[1].len, 2 * kDescBytes);
}

TEST(DescRing, SlotsPersistAcrossLaps)
{
    // A stale descriptor from the previous lap remains readable --
    // the precondition of the producer-overrun attack of section 3.3.
    DescRing ring(4, 0);
    DmaDescriptor d;
    d.flags = kDescValid;
    d.seqno = 7;
    ring.write(1, d);
    EXPECT_TRUE(ring.at(5).valid());
    EXPECT_EQ(ring.at(5).seqno, 7u);
}

TEST(DescRing, PacketAttachDetach)
{
    DescRing ring(4, 0);
    net::Packet p;
    p.payloadBytes = 99;
    ring.attachPacket(2, std::move(p));
    EXPECT_TRUE(ring.hasPacket(2));
    EXPECT_TRUE(ring.hasPacket(6)); // same slot, wrapped
    auto out = ring.detachPacket(6);
    ASSERT_TRUE(out.has_value());
    EXPECT_EQ(out->payloadBytes, 99u);
    EXPECT_FALSE(ring.hasPacket(2));
    EXPECT_FALSE(ring.detachPacket(2).has_value());
}

TEST(Descriptor, LenSumsScatterGather)
{
    DmaDescriptor d;
    d.sg = {{0, 100}, {8192, 400}};
    EXPECT_EQ(d.len(), 500u);
    EXPECT_FALSE(d.valid());
    d.flags = kDescValid | kDescEop;
    EXPECT_TRUE(d.valid());
}

// ------------------------------------------------------------- mailbox ----

TEST(Mailbox, PageReadWrite)
{
    MailboxPage page;
    page.write(0, 42);
    page.write(23, 7);
    EXPECT_EQ(page.read(0), 42u);
    EXPECT_EQ(page.read(23), 7u);
    EXPECT_EQ(page.read(5), 0u);
}

TEST(MailboxHier, PostAndPopLowestFirst)
{
    MailboxEventHier h;
    EXPECT_FALSE(h.pending());
    h.post(5, 3);
    h.post(2, 7);
    h.post(2, 1);
    EXPECT_TRUE(h.pending());
    EXPECT_EQ(h.contextVector(), (1u << 5) | (1u << 2));
    EXPECT_EQ(h.mailboxVector(2), (1u << 7) | (1u << 1));

    std::uint32_t c, m;
    ASSERT_TRUE(h.popLowest(&c, &m));
    EXPECT_EQ(c, 2u);
    EXPECT_EQ(m, 1u);
    ASSERT_TRUE(h.popLowest(&c, &m));
    EXPECT_EQ(c, 2u);
    EXPECT_EQ(m, 7u);
    ASSERT_TRUE(h.popLowest(&c, &m));
    EXPECT_EQ(c, 5u);
    EXPECT_EQ(m, 3u);
    EXPECT_FALSE(h.popLowest(&c, &m));
    EXPECT_FALSE(h.pending());
}

TEST(MailboxHier, DuplicatePostsMerge)
{
    MailboxEventHier h;
    h.post(1, 2);
    h.post(1, 2);
    std::uint32_t c, m;
    EXPECT_TRUE(h.popLowest(&c, &m));
    EXPECT_FALSE(h.popLowest(&c, &m));
}

TEST(MailboxHier, ClearContextDropsAll)
{
    MailboxEventHier h;
    h.post(3, 0);
    h.post(3, 9);
    h.post(4, 1);
    h.clearContext(3);
    std::uint32_t c, m;
    ASSERT_TRUE(h.popLowest(&c, &m));
    EXPECT_EQ(c, 4u);
    EXPECT_FALSE(h.popLowest(&c, &m));
}

/** Property sweep: encode/decode over every (context, mailbox) pair. */
class MailboxHierProperty
    : public ::testing::TestWithParam<std::tuple<int, int>>
{
};

TEST_P(MailboxHierProperty, RoundTripsEverySlot)
{
    auto [cxt, mbox] = GetParam();
    MailboxEventHier h;
    h.post(cxt, mbox);
    std::uint32_t c, m;
    ASSERT_TRUE(h.popLowest(&c, &m));
    EXPECT_EQ(c, static_cast<std::uint32_t>(cxt));
    EXPECT_EQ(m, static_cast<std::uint32_t>(mbox));
    EXPECT_FALSE(h.pending());
}

INSTANTIATE_TEST_SUITE_P(
    AllSlots, MailboxHierProperty,
    ::testing::Combine(::testing::Values(0, 1, 7, 15, 31),
                       ::testing::Values(0, 1, 11, 23)));

// ------------------------------------------------------- packet buffer ----

TEST(PacketBufferPool, ReserveRelease)
{
    PacketBufferPool pool(1000);
    EXPECT_TRUE(pool.tryReserve(600));
    EXPECT_FALSE(pool.tryReserve(500));
    EXPECT_TRUE(pool.tryReserve(400));
    EXPECT_EQ(pool.available(), 0u);
    pool.release(600);
    EXPECT_EQ(pool.used(), 400u);
    EXPECT_EQ(pool.highWater(), 1000u);
}

// ------------------------------------------------------------ firmware ----

TEST(FirmwareProc, JobsSerialize)
{
    sim::SimContext ctx;
    FirmwareProc fw(ctx, "fw");
    sim::Time first = 0, second = 0;
    fw.exec(sim::microseconds(2), [&] { first = ctx.now(); });
    fw.exec(sim::microseconds(3), [&] { second = ctx.now(); });
    ctx.events().run();
    EXPECT_EQ(first, sim::microseconds(2));
    EXPECT_EQ(second, sim::microseconds(5));
    EXPECT_EQ(fw.jobsRun(), 2u);
    EXPECT_NEAR(fw.utilization(ctx.now()), 1.0, 1e-9);
}

// ------------------------------------------------------------ IntelNic ----

namespace {

/**
 * A minimal "host" that drives an IntelNic the way a driver would,
 * without any CPU modeling: it writes descriptors and rings doorbells.
 */
struct IntelHarness
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 4096};
    mem::PciBus bus{ctx, "pci"};
    net::EthLink link{ctx, "eth"};
    net::TrafficPeer peer{ctx, "peer", link};
    IntelNic nic;
    mem::DomainId dom = 1;
    std::uint32_t txProducer = 0;
    std::uint32_t rxProducer = 0;
    std::vector<mem::PageNum> rxPages;

    IntelHarness()
        : nic(ctx, "nic", bus, mem, 0, link)
    {
        nic.setDmaDomain(dom);
        nic.setMac(net::MacAddr::fromId(1));
        nic.configureTxRing(16, mem::addrOf(mem.allocOne(dom)));
        nic.configureRxRing(16, mem::addrOf(mem.allocOne(dom)));
        nic.setStatusBlockAddr(mem::addrOf(mem.allocOne(dom)));
    }

    void
    queueTx(std::uint32_t payload)
    {
        mem::PageNum page = mem.allocOne(dom);
        DmaDescriptor d;
        d.sg = {{mem::addrOf(page), payload}};
        d.flags = kDescValid | kDescEop;
        net::Packet p;
        p.src = nic.mac();
        p.dst = peer.mac();
        p.payloadBytes = payload;
        p.hostSg = d.sg;
        nic.txRing().write(txProducer, d);
        nic.txRing().attachPacket(txProducer, std::move(p));
        ++txProducer;
    }

    void
    postRxBuffers(std::uint32_t n)
    {
        for (std::uint32_t i = 0; i < n; ++i) {
            mem::PageNum page = mem.allocOne(dom);
            rxPages.push_back(page);
            DmaDescriptor d;
            d.sg = {{mem::addrOf(page), net::kMtu}};
            d.flags = kDescValid;
            nic.rxRing().write(rxProducer, d);
            ++rxProducer;
        }
        nic.pioWriteRxProducer(rxProducer);
    }
};

} // namespace

TEST(IntelNic, TransmitsQueuedDescriptors)
{
    IntelHarness h;
    for (int i = 0; i < 5; ++i)
        h.queueTx(1000);
    h.nic.pioWriteTxProducer(h.txProducer);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.txPackets(), 5u);
    EXPECT_EQ(h.peer.payloadReceived(), 5000u);
    EXPECT_EQ(h.nic.txConsumer(), 5u);
    EXPECT_GE(h.nic.irqCount(), 1u);
    EXPECT_EQ(h.mem.violationCount(), 0u);
}

TEST(IntelNic, TsoSegmentOccupiesManyFrames)
{
    IntelHarness h;
    h.queueTx(65536);
    h.nic.pioWriteTxProducer(h.txProducer);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.txPackets(), 1u);
    EXPECT_EQ(h.peer.payloadReceived(), 65536u);
    EXPECT_EQ(h.peer.framesReceived(), (65536u + net::kMss - 1) / net::kMss);
}

TEST(IntelNic, ReceiveIntoPostedBuffers)
{
    IntelHarness h;
    h.postRxBuffers(8);
    h.ctx.events().run(); // let descriptor prefetch complete

    net::Packet p;
    p.src = h.peer.mac();
    p.dst = h.nic.mac();
    p.payloadBytes = 800;
    h.link.port(0).send(p);
    h.link.port(0).send(p);
    h.ctx.events().run();

    EXPECT_EQ(h.nic.rxPackets(), 2u);
    sim::Fifo<net::Packet> got;
    EXPECT_EQ(h.nic.drainRx(got), 2u);
    ASSERT_EQ(got.size(), 2u);
    // Each frame names the prefix of the posted buffer it landed in.
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i].hostSg.size(), 1u) << i;
        EXPECT_EQ(got[i].hostSg[0].addr, mem::addrOf(h.rxPages[i])) << i;
        EXPECT_EQ(got[i].hostSg[0].len, 840u) << i;
    }
    EXPECT_EQ(h.nic.rxConsumer(), 2u);
}

TEST(IntelNic, MacFilterDropsForeignFrames)
{
    IntelHarness h;
    h.postRxBuffers(4);
    h.ctx.events().run();
    net::Packet p;
    p.dst = net::MacAddr::fromId(999);
    p.payloadBytes = 100;
    h.link.port(0).send(p);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.rxPackets(), 0u);
    EXPECT_EQ(h.nic.rxDropFilter(), 1u);

    h.nic.setPromiscuous(true);
    h.link.port(0).send(p);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.rxPackets(), 1u);
}

TEST(IntelNic, DropsWhenNoRxDescriptors)
{
    IntelHarness h; // no buffers posted
    net::Packet p;
    p.dst = h.nic.mac();
    p.payloadBytes = 100;
    h.link.port(0).send(p);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.rxDropNoDesc(), 1u);
    EXPECT_EQ(h.nic.rxPackets(), 0u);
}

TEST(IntelNic, GhostDescriptorCounted)
{
    IntelHarness h;
    // Valid descriptor but no packet attached (host lied about buffer).
    DmaDescriptor d;
    d.sg = {{mem::addrOf(h.mem.allocOne(h.dom)), 500}};
    d.flags = kDescValid | kDescEop;
    h.nic.txRing().write(0, d);
    h.nic.pioWriteTxProducer(1);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.txPackets(), 0u);
    EXPECT_EQ(h.nic.txConsumer(), 1u); // consumed without transmit
}

TEST(IntelNic, RingWrapsAcrossManyLaps)
{
    IntelHarness h;
    for (int lap = 0; lap < 5; ++lap) {
        for (int i = 0; i < 8; ++i)
            h.queueTx(500);
        h.nic.pioWriteTxProducer(h.txProducer);
        h.ctx.events().run();
    }
    EXPECT_EQ(h.nic.txPackets(), 40u);
    EXPECT_EQ(h.nic.txConsumer(), 40u);
    EXPECT_EQ(h.peer.payloadReceived(), 20000u);
}

TEST(IntelNic, CoalescingBoundsIrqRate)
{
    IntelHarness h;
    // Generous window: one interrupt should cover the whole burst.
    CoalesceParams co{sim::milliseconds(5), 1000};
    h.nic.setCoalesce(co);
    for (int i = 0; i < 10; ++i)
        h.queueTx(100);
    h.nic.pioWriteTxProducer(h.txProducer);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.irqCount(), 1u);
}
