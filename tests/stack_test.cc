/**
 * @file
 * Unit tests for the kernel network stack model: segmentation (TSO vs
 * MSS), scatter/gather page mapping, device-full backpressure, RX
 * batching, and ACK generation.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "os/net_stack.hh"
#include "os/xen_net.hh"
#include "vmm/hypervisor.hh"

using namespace cdna;
using namespace cdna::os;

namespace {

/** Scriptable in-memory NetDevice. */
struct FakeDevice : NetDevice
{
    bool tso = false;
    std::size_t capacity = 1000;
    std::vector<net::Packet> sent;
    net::MacAddr addr = net::MacAddr::fromId(42);

    bool canTransmit() const override { return sent.size() < capacity; }
    void transmit(net::Packet pkt) override { sent.push_back(std::move(pkt)); }
    net::MacAddr mac() const override { return addr; }
    bool tsoCapable() const override { return tso; }

    using NetDevice::deliverRx;
    using NetDevice::deliverTxComplete;
    using NetDevice::deliverTxSpace;
};

struct StackFixture : ::testing::Test
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 4096};
    cpu::SimCpu cpu{ctx, "cpu"};
    vmm::Hypervisor hv{ctx, cpu, mem};
    FakeDevice dev;
    vmm::Domain *dom = nullptr;
    std::unique_ptr<NetStack> stack;

    void
    SetUp() override
    {
        dom = &hv.createDomain(vmm::Domain::Kind::kGuest, "g");
        stack = std::make_unique<NetStack>(ctx, "stack", *dom, dev);
        stack->setDefaultDst(net::MacAddr::fromId(99));
    }

    std::vector<mem::PageNum>
    buffer(std::uint32_t pages)
    {
        return mem.alloc(dom->id(), pages);
    }
};

} // namespace

TEST_F(StackFixture, NonTsoSegmentsAtMss)
{
    dev.tso = false;
    stack->sendBurst(65536, 1, buffer(16));
    ctx.events().run();
    // ceil(65536 / 1460) = 45 frames.
    ASSERT_EQ(dev.sent.size(), 45u);
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < dev.sent.size(); ++i) {
        const auto &p = dev.sent[i];
        EXPECT_LE(p.payloadBytes, net::kMss);
        if (i + 1 < dev.sent.size()) {
            EXPECT_EQ(p.payloadBytes, net::kMss);
        }
        EXPECT_EQ(p.dst, net::MacAddr::fromId(99));
        EXPECT_EQ(p.src, dev.addr);
        total += p.payloadBytes;
    }
    EXPECT_EQ(total, 65536u);
    EXPECT_EQ(stack->txBytes(), 65536u);
}

TEST_F(StackFixture, TsoSendsWholeSegments)
{
    dev.tso = true;
    stack->sendBurst(65536, 1, buffer(16));
    ctx.events().run();
    ASSERT_EQ(dev.sent.size(), 1u);
    EXPECT_EQ(dev.sent[0].payloadBytes, 65536u);
}

TEST_F(StackFixture, SgEntriesCoverExactBytes)
{
    dev.tso = false;
    auto pages = buffer(16);
    stack->sendBurst(65536, 1, pages);
    ctx.events().run();
    // Every packet's SG list sums to its payload and stays inside the
    // buffer pages.
    for (const auto &p : dev.sent) {
        EXPECT_EQ(mem::sgBytes(p.hostSg), p.payloadBytes);
        for (const auto &e : p.hostSg) {
            mem::PageNum pg = mem::pageOf(e.addr);
            bool inside = false;
            for (auto bp : pages)
                inside |= pg == bp ||
                          mem::pageOf(e.addr + e.len - 1) == bp;
            EXPECT_TRUE(inside);
        }
    }
}

TEST_F(StackFixture, FramesCrossingPagesGetTwoSgEntries)
{
    dev.tso = false;
    stack->sendBurst(4 * 1460, 1, buffer(2));
    ctx.events().run();
    ASSERT_EQ(dev.sent.size(), 4u);
    // Frame 0 fits in page 0; frames 2 (offset 2920..4380) crosses the
    // 4096 boundary.
    EXPECT_EQ(dev.sent[0].hostSg.size(), 1u);
    EXPECT_EQ(dev.sent[2].hostSg.size(), 2u);
}

TEST_F(StackFixture, DeviceFullQueuesAndResumesOnSpace)
{
    dev.tso = false;
    dev.capacity = 10;
    stack->sendBurst(30 * 1460, 1, buffer(11));
    ctx.events().run();
    EXPECT_EQ(dev.sent.size(), 10u);

    // The device frees up and reports space; the stack drains.
    dev.capacity = 1000;
    dev.deliverTxSpace();
    ctx.events().run();
    EXPECT_EQ(dev.sent.size(), 30u);
}

TEST_F(StackFixture, DeviceFullPreservesFlushOrdering)
{
    // Frames requeued while the device was full must drain in their
    // original order: every frame's first SG entry maps the buffer
    // offset its position implies.
    dev.tso = false;
    dev.capacity = 10;
    auto pages = buffer(11);
    stack->sendBurst(30 * 1460, 1, pages);
    ctx.events().run();
    dev.capacity = 1000;
    dev.deliverTxSpace();
    ctx.events().run();
    ASSERT_EQ(dev.sent.size(), 30u);
    for (std::size_t i = 0; i < dev.sent.size(); ++i) {
        std::uint64_t off = i * 1460ull;
        mem::PhysAddr expect =
            mem::addrOf(pages[off / mem::kPageSize]) + off % mem::kPageSize;
        ASSERT_FALSE(dev.sent[i].hostSg.empty());
        EXPECT_EQ(dev.sent[i].hostSg[0].addr, expect) << "frame " << i;
    }
}

TEST_F(StackFixture, BacklogWatermarkTracksDeviceFull)
{
    dev.tso = false;
    dev.capacity = 10;
    stack->sendBurst(30 * 1460, 1, buffer(11));
    ctx.events().run();
    // 30 frames, 10 accepted: 20 sit in the backlog.
    EXPECT_EQ(stack->txBacklogDepth(), 20u);
    EXPECT_EQ(stack->txBacklogPeak(), 20u);

    dev.capacity = 1000;
    dev.deliverTxSpace();
    ctx.events().run();
    EXPECT_EQ(stack->txBacklogDepth(), 0u);
    // The peak is a lifetime high-watermark, not a current depth.
    EXPECT_EQ(stack->txBacklogPeak(), 20u);
}

TEST_F(StackFixture, BadChecksumFramesDroppedBeforeDelivery)
{
    std::uint32_t pkts = 0;
    stack->setRxDeliverHandler(
        [&](std::uint64_t, std::uint32_t p) { pkts += p; });
    net::Packet bad;
    bad.payloadBytes = 1460;
    bad.src = net::MacAddr::fromId(7);
    bad.intact = false;
    dev.deliverRx(std::move(bad));
    ctx.events().run();
    EXPECT_EQ(pkts, 0u);
    EXPECT_EQ(stack->rxDropsBadCsum(), 1u);
    EXPECT_EQ(stack->rxBytes(), 0u);
    // No ACK is generated for a frame that failed its checksum.
    EXPECT_TRUE(dev.sent.empty());
}

TEST_F(StackFixture, TcpModeSegmentsRespectInitialWindow)
{
    dev.tso = false;
    stack->enableTcp();
    stack->sendBurst(30 * 1460, 1, buffer(11));
    // Run to just before the first RTO (3 ms): with no ACKs, only the
    // initial congestion window (IW10) leaves.
    ctx.events().runUntil(sim::milliseconds(1));
    ASSERT_EQ(dev.sent.size(), 10u);
    for (std::size_t i = 0; i < dev.sent.size(); ++i) {
        EXPECT_TRUE(dev.sent[i].tcpData);
        EXPECT_EQ(dev.sent[i].seq, i * 1460ull);
        EXPECT_EQ(dev.sent[i].payloadBytes, 1460u);
    }

    // An ACK for the first two segments opens the window again.
    net::Packet ack;
    ack.src = net::MacAddr::fromId(99);
    ack.tcpAck = true;
    ack.flowId = 1;
    ack.ackNo = 2 * 1460;
    dev.deliverRx(std::move(ack));
    ctx.events().runUntil(sim::milliseconds(2));
    EXPECT_GT(dev.sent.size(), 10u);
    EXPECT_EQ(dev.sent[10].seq, 10 * 1460ull);
}

TEST_F(StackFixture, TxCompleteForwarded)
{
    std::uint64_t completed = 0;
    stack->setTxCompleteHandler([&](std::uint64_t b) { completed += b; });
    dev.deliverTxComplete(1460);
    dev.deliverTxComplete(1460);
    EXPECT_EQ(completed, 2920u);
}

TEST_F(StackFixture, RxBatchDeliveredToApp)
{
    std::uint64_t bytes = 0;
    std::uint32_t pkts = 0;
    stack->setRxDeliverHandler([&](std::uint64_t b, std::uint32_t p) {
        bytes += b;
        pkts += p;
    });
    for (int i = 0; i < 5; ++i) {
        net::Packet p;
        p.payloadBytes = 1460;
        p.src = net::MacAddr::fromId(7);
        dev.deliverRx(std::move(p));
    }
    ctx.events().run();
    EXPECT_EQ(bytes, 5u * 1460);
    EXPECT_EQ(pkts, 5u);
    EXPECT_EQ(stack->rxBytes(), 5u * 1460);
    // OS and user time were charged for the delivery.
    EXPECT_GT(cpu.profile().domainTime(dom->id(), cpu::Bucket::kOs), 0);
    EXPECT_GT(cpu.profile().domainTime(dom->id(), cpu::Bucket::kUser), 0);
}

TEST_F(StackFixture, GeneratesDelayedAcks)
{
    // 6 data frames with ack-every-2 -> 3 ACKs out the device.
    for (int i = 0; i < 6; ++i) {
        net::Packet p;
        p.payloadBytes = 1460;
        p.src = net::MacAddr::fromId(7);
        dev.deliverRx(std::move(p));
    }
    ctx.events().run();
    ASSERT_EQ(dev.sent.size(), 3u);
    for (const auto &ack : dev.sent) {
        EXPECT_EQ(ack.payloadBytes, 0u);
        EXPECT_EQ(ack.dst, net::MacAddr::fromId(7));
    }
}

TEST_F(StackFixture, IncomingAcksNotDeliveredToApp)
{
    std::uint32_t pkts = 0;
    stack->setRxDeliverHandler(
        [&](std::uint64_t, std::uint32_t p) { pkts += p; });
    net::Packet ack;
    ack.payloadBytes = 0;
    ack.src = net::MacAddr::fromId(7);
    dev.deliverRx(std::move(ack));
    ctx.events().run();
    EXPECT_EQ(pkts, 0u);
    // And no ACK was generated in response.
    EXPECT_TRUE(dev.sent.empty());
}

TEST_F(StackFixture, AckDebtCarriesAcrossBatches)
{
    // 3 data frames (ack-every-2): one ACK now, debt 1 carried; one
    // more frame completes the second ACK.
    for (int i = 0; i < 3; ++i) {
        net::Packet p;
        p.payloadBytes = 100;
        p.src = net::MacAddr::fromId(7);
        dev.deliverRx(std::move(p));
    }
    ctx.events().run();
    EXPECT_EQ(dev.sent.size(), 1u);
    net::Packet p;
    p.payloadBytes = 100;
    p.src = net::MacAddr::fromId(7);
    dev.deliverRx(std::move(p));
    ctx.events().run();
    EXPECT_EQ(dev.sent.size(), 2u);
}

/** Property sweep: segmentation conserves bytes for arbitrary sizes. */
class StackSegmentation : public StackFixture,
                          public ::testing::WithParamInterface<std::uint32_t>
{
};

TEST_P(StackSegmentation, ConservesBytes)
{
    dev.tso = false;
    std::uint32_t bytes = GetParam();
    stack->sendBurst(bytes, 1, buffer((bytes + 4095) / 4096));
    ctx.events().run();
    std::uint64_t total = 0;
    for (const auto &p : dev.sent) {
        EXPECT_GT(p.payloadBytes, 0u);
        EXPECT_LE(p.payloadBytes, net::kMss);
        EXPECT_EQ(mem::sgBytes(p.hostSg), p.payloadBytes);
        total += p.payloadBytes;
    }
    EXPECT_EQ(total, bytes);
    EXPECT_EQ(dev.sent.size(), (bytes + net::kMss - 1) / net::kMss);
}

INSTANTIATE_TEST_SUITE_P(Sizes, StackSegmentation,
                         ::testing::Values(1, 100, 1460, 1461, 2920, 4096,
                                           10000, 65536, 65535, 32768));

// ---------------------------------------------------------- xen bridge ----

// A TX request whose grants no longer all map when netback services it
// (the guest gave a page up after granting it) has no legal window into
// the frame: netback unmaps what it did map, answers with an error
// response and keeps the frame off the wire, and the guest still gets
// its completion.
TEST(XenNetback, RefusesTxWhoseGrantNoLongerMaps)
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 4096};
    cpu::SimCpu cpu{ctx, "cpu"};
    vmm::Hypervisor hv{ctx, cpu, mem};
    FakeDevice phys;
    vmm::Domain &dom0 = hv.createDomain(vmm::Domain::Kind::kDriver, "dom0");
    DriverDomainNet ddn(ctx, "ddn", dom0, phys);
    vmm::Domain &guest = hv.createDomain(vmm::Domain::Kind::kGuest, "g");
    XenVif &vif = ddn.createVif(guest, net::MacAddr::fromId(7));
    std::uint64_t completed = 0;
    vif.setTxCompleteHandler([&](std::uint64_t bytes) { completed += bytes; });

    // One frame split over two guest pages.
    mem::PageNum kept = mem.allocOne(guest.id());
    mem::PageNum freed = mem.allocOne(guest.id());
    net::Packet pkt;
    pkt.dst = net::MacAddr::fromId(99);
    pkt.payloadBytes = 1000;
    pkt.hostSg = {{mem::addrOf(kept), 500 + net::kTcpIpHeader},
                  {mem::addrOf(freed), 500}};
    ASSERT_TRUE(vif.canTransmit());
    vif.transmit(std::move(pkt));
    vif.flush();
    // The frontend grants both pages to dom0 and rings netback...
    mem::GrantTable &grants = hv.grants();
    while (grants.activeGrants() == 0 && ctx.events().runOne()) {
    }
    ASSERT_EQ(grants.activeGrants(), 2u);
    // ...and the second page leaves the guest before netback maps it.
    ASSERT_TRUE(mem.release(freed));
    ctx.events().run();

    auto count = [&grants](const char *name) {
        return grants.stats().findCounter(name)->value();
    };
    EXPECT_EQ(count("maps"), 1u);   // the first page, unmapped again
    EXPECT_EQ(count("denied"), 1u); // the second
    EXPECT_TRUE(phys.sent.empty()); // never reached the wire
    EXPECT_EQ(mem.refCount(kept), 0u);
    EXPECT_EQ(mem.refCount(freed), 0u);
    EXPECT_TRUE(mem.ownedBy(kept, guest.id()));
    EXPECT_EQ(completed, 1000u); // the error response completes it
    EXPECT_EQ(grants.activeGrants(), 0u); // and the frontend ended both
    EXPECT_EQ(mem.violationCount(), 0u);
}

// fromId(131) and fromId(256) hash alike (MacAddr::hash()); the bridge
// must still hand each vif its own frames.
TEST(XenBridge, DemuxSeparatesMacsThatHashAlike)
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 4096};
    cpu::SimCpu cpu{ctx, "cpu"};
    vmm::Hypervisor hv{ctx, cpu, mem};
    FakeDevice phys;
    vmm::Domain &dom0 = hv.createDomain(vmm::Domain::Kind::kDriver, "dom0");
    DriverDomainNet ddn(ctx, "ddn", dom0, phys);
    const net::MacAddr macs[] = {net::MacAddr::fromId(131),
                                 net::MacAddr::fromId(256)};
    std::vector<net::MacAddr> got[2];
    for (int v = 0; v < 2; ++v) {
        vmm::Domain &guest = hv.createDomain(vmm::Domain::Kind::kGuest,
                                             v == 0 ? "g0" : "g1");
        XenVif &vif = ddn.createVif(guest, macs[v]);
        vif.setRxHandler(
            [&got, v](net::Packet pkt) { got[v].push_back(pkt.dst); });
    }
    // Each frame fills a dom0 buffer, as the NIC's DMA leaves it.
    for (int v : {0, 1, 1}) {
        net::Packet pkt;
        pkt.dst = macs[v];
        pkt.payloadBytes = 100;
        pkt.hostSg = {{mem::addrOf(mem.allocOne(dom0.id())),
                       100 + net::kTcpIpHeader}};
        phys.deliverRx(std::move(pkt));
    }
    ctx.events().run();
    EXPECT_EQ(got[0], std::vector<net::MacAddr>{macs[0]});
    EXPECT_EQ(got[1], (std::vector<net::MacAddr>{macs[1], macs[1]}));
}
