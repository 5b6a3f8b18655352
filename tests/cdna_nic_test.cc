/**
 * @file
 * Unit tests for the CDNA NIC (paper sections 3 and 4): hardware
 * contexts, mailbox-driven descriptor fetch, sequence-number
 * validation, MAC demultiplexing, fair transmit interleave, and
 * interrupt bit vectors.
 */

#include <gtest/gtest.h>

#include "core/cdna_nic.hh"
#include "core/interrupt_ring.hh"
#include "net/eth_link.hh"
#include "net/traffic_peer.hh"
#include "sim/sim_object.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

struct CdnaHarness
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 8192};
    mem::PciBus bus{ctx, "pci"};
    net::EthLink link{ctx, "eth"};
    net::TrafficPeer peer{ctx, "peer", link};
    CdnaNic nic;

    std::vector<std::uint32_t> producers;
    std::vector<std::uint64_t> seqnos;
    std::vector<std::uint32_t> rxProducers;
    std::vector<std::uint64_t> rxSeqnos;

    explicit CdnaHarness(CdnaNicParams params = {})
        : nic(ctx, "cdna", bus, mem, 0, link,
              params)
    {
    }

    CdnaNic::ContextId
    makeContext(mem::DomainId dom, std::uint32_t mac_id,
                std::uint32_t entries = 16)
    {
        auto cxt = nic.allocContext(dom, net::MacAddr::fromId(mac_id));
        mem::PageNum txp = mem.allocOne(dom);
        mem::PageNum rxp = mem.allocOne(dom);
        nic.configureContextRings(cxt, entries, mem::addrOf(txp),
                                  entries, mem::addrOf(rxp));
        if (producers.size() <= cxt) {
            producers.resize(cxt + 1, 0);
            seqnos.resize(cxt + 1, 1);
            rxProducers.resize(cxt + 1, 0);
            rxSeqnos.resize(cxt + 1, 1);
        }
        return cxt;
    }

    /** Enqueue one TX descriptor the way the hypervisor would. */
    void
    queueTx(CdnaNic::ContextId cxt, std::uint32_t payload,
            net::MacAddr dst)
    {
        mem::DomainId dom = nic.contextDomain(cxt);
        mem::PageNum page = mem.allocOne(dom);
        nic::DmaDescriptor d;
        d.sg = {{mem::addrOf(page), payload}};
        d.flags = nic::kDescValid | nic::kDescEop;
        d.seqno = seqnos[cxt]++;
        net::Packet p;
        p.src = net::MacAddr::fromId(100 + cxt);
        p.dst = dst;
        p.payloadBytes = payload;
        p.hostSg = d.sg;
        nic.txRing(cxt).write(producers[cxt], d);
        nic.txRing(cxt).attachPacket(producers[cxt], std::move(p));
        ++producers[cxt];
    }

    void
    doorbellTx(CdnaNic::ContextId cxt)
    {
        nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, producers[cxt]);
    }

    void
    postRx(CdnaNic::ContextId cxt, std::uint32_t n)
    {
        mem::DomainId dom = nic.contextDomain(cxt);
        for (std::uint32_t i = 0; i < n; ++i) {
            mem::PageNum page = mem.allocOne(dom);
            nic::DmaDescriptor d;
            d.sg = {{mem::addrOf(page), net::kMtu}};
            d.flags = nic::kDescValid;
            d.seqno = rxSeqnos[cxt]++;
            nic.rxRing(cxt).write(rxProducers[cxt], d);
            ++rxProducers[cxt];
        }
        nic.pioWriteMailbox(cxt, nic::kMboxRxProducer, rxProducers[cxt]);
    }
};

} // namespace

// ---------------------------------------------------------- contexts ----

TEST(CdnaNic, ContextAllocationAndLimits)
{
    CdnaNicParams params;
    params.numContexts = 3;
    CdnaHarness h(params);
    auto a = h.nic.allocContext(1, net::MacAddr::fromId(1));
    auto b = h.nic.allocContext(2, net::MacAddr::fromId(2));
    auto c = h.nic.allocContext(3, net::MacAddr::fromId(3));
    auto d = h.nic.allocContext(4, net::MacAddr::fromId(4));
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);
    EXPECT_EQ(d, 3u);
    EXPECT_EQ(h.nic.allocatedContexts(), 4u);
    EXPECT_EQ(h.nic.contextDomain(b), 2u);
    // Three slots hold the first three; the fourth starts paged out.
    EXPECT_TRUE(h.nic.contextResident(c));
    EXPECT_FALSE(h.nic.contextResident(d));
    EXPECT_EQ(h.nic.freeSlots(), 0u);
}

TEST(CdnaNic, DefaultNicPagesOutContextsPastItsSlots)
{
    // The paper's NIC has 32 context slots; a 33rd context still gets
    // an id, and waits paged out for the hypervisor's pager.
    CdnaHarness h;
    ASSERT_EQ(h.nic.params().numContexts, 32u);
    for (std::uint32_t i = 0; i < 32; ++i)
        EXPECT_TRUE(h.nic.contextResident(
            h.nic.allocContext(i + 1, net::MacAddr::fromId(i + 1))));
    auto extra = h.nic.allocContext(33, net::MacAddr::fromId(33));
    EXPECT_EQ(extra, 32u);
    EXPECT_TRUE(h.nic.contextAllocated(extra));
    EXPECT_FALSE(h.nic.contextResident(extra));
    EXPECT_EQ(h.nic.allocatedContexts(), 33u);
    EXPECT_EQ(h.nic.contextTableSize(), 33u);
}

TEST(CdnaNic, RevocationFreesContextForReuse)
{
    CdnaHarness h;
    auto cxt = h.makeContext(1, 10);
    h.nic.revokeContext(cxt);
    EXPECT_FALSE(h.nic.contextAllocated(cxt));
    auto again = h.nic.allocContext(9, net::MacAddr::fromId(11));
    EXPECT_EQ(again, cxt); // lowest free entry reused
}

// ---------------------------------------------------------- transmit ----

TEST(CdnaNic, MailboxDoorbellDrivesTransmit)
{
    CdnaHarness h;
    auto cxt = h.makeContext(1, 10);
    for (int i = 0; i < 4; ++i)
        h.queueTx(cxt, 1000, h.peer.mac());
    h.doorbellTx(cxt);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.txPackets(), 4u);
    EXPECT_EQ(h.peer.payloadReceived(), 4000u);
    EXPECT_EQ(h.nic.txConsumer(cxt), 4u);
    EXPECT_EQ(h.mem.violationCount(), 0u);
    EXPECT_GE(h.nic.irqCount(), 1u);
}

TEST(CdnaNic, FairInterleaveAcrossContexts)
{
    CdnaHarness h;
    auto a = h.makeContext(1, 10);
    auto b = h.makeContext(2, 20);
    // Queue a large burst on 'a' first, then 'b'.
    for (int i = 0; i < 8; ++i)
        h.queueTx(a, net::kMss, h.peer.mac());
    for (int i = 0; i < 8; ++i)
        h.queueTx(b, net::kMss, h.peer.mac());
    h.doorbellTx(a);
    h.doorbellTx(b);
    h.ctx.events().run();

    // Both contexts drained fully and fairly: by total payload each
    // sent half.
    EXPECT_EQ(h.peer.receivedFrom(net::MacAddr::fromId(100 + a)),
              8ull * net::kMss);
    EXPECT_EQ(h.peer.receivedFrom(net::MacAddr::fromId(100 + b)),
              8ull * net::kMss);
    EXPECT_EQ(h.nic.txConsumer(a), 8u);
    EXPECT_EQ(h.nic.txConsumer(b), 8u);
}

// --------------------------------------------------- sequence numbers ----

TEST(CdnaNic, StaleDescriptorTriggersSeqnoFault)
{
    CdnaHarness h;
    auto cxt = h.makeContext(1, 10, /*entries=*/8);
    // Fill one lap legitimately.
    for (int i = 0; i < 8; ++i)
        h.queueTx(cxt, 500, h.peer.mac());
    h.doorbellTx(cxt);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.txPackets(), 8u);
    ASSERT_FALSE(h.nic.contextFaulted(cxt));

    // Malicious driver bumps the producer past the last valid entry:
    // slot contents are stale (seqno from the previous lap).
    bool fault_reported = false;
    h.nic.setFaultHandler([&](CdnaNic::ContextId c, mem::DomainId dom,
                              vmm::Fault f) {
        fault_reported = true;
        EXPECT_EQ(c, cxt);
        EXPECT_EQ(dom, 1u);
        EXPECT_EQ(f, vmm::Fault::kBadSeqno);
    });
    h.nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, h.producers[cxt] + 3);
    h.ctx.events().run();

    EXPECT_TRUE(fault_reported);
    EXPECT_TRUE(h.nic.contextFaulted(cxt));
    EXPECT_EQ(h.nic.seqnoFaults(), 1u);
    // Nothing further transmitted from the stale slots.
    EXPECT_EQ(h.nic.txPackets(), 8u);
}

TEST(CdnaNic, ForgedSeqnoCaught)
{
    CdnaHarness h;
    auto cxt = h.makeContext(1, 10);
    h.queueTx(cxt, 500, h.peer.mac());
    // Tamper: rewrite the descriptor with a wrong sequence number.
    nic::DmaDescriptor d = h.nic.txRing(cxt).at(0);
    d.seqno = 42;
    h.nic.txRing(cxt).write(0, d);
    h.doorbellTx(cxt);
    h.ctx.events().run();
    EXPECT_TRUE(h.nic.contextFaulted(cxt));
    EXPECT_EQ(h.nic.txPackets(), 0u);
}

TEST(CdnaNic, SeqnoCheckDisabledTransmitsStaleGarbage)
{
    CdnaNicParams params;
    params.seqnoCheck = false;
    CdnaHarness h(params);
    auto cxt = h.makeContext(1, 10, 8);
    for (int i = 0; i < 8; ++i)
        h.queueTx(cxt, 500, h.peer.mac());
    h.doorbellTx(cxt);
    h.ctx.events().run();

    // Producer overrun with checks off: the NIC transmits whatever the
    // stale descriptors point at (ghost frames).
    h.nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, h.producers[cxt] + 3);
    h.ctx.events().run();
    EXPECT_FALSE(h.nic.contextFaulted(cxt));
    EXPECT_EQ(h.nic.ghostTxCount(), 3u);
}

/** Aliasing property (section 3.3): the sequence-number modulus must be
 *  at least twice the ring size, or a stale descriptor exactly one lap
 *  old aliases the expected value and escapes detection. */
class SeqnoModulus : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeqnoModulus, DetectsStaleUnlessAliased)
{
    const std::uint32_t ring = 8;
    CdnaNicParams params;
    params.seqnoModulus = GetParam();
    CdnaHarness h(params);
    auto cxt = h.makeContext(1, 10, ring);

    // One full lap with correctly stamped (mod M) descriptors.
    for (std::uint32_t i = 0; i < ring; ++i) {
        mem::PageNum page = h.mem.allocOne(1);
        nic::DmaDescriptor d;
        d.sg = {{mem::addrOf(page), 300}};
        d.flags = nic::kDescValid | nic::kDescEop;
        d.seqno = (i + 1) % params.seqnoModulus;
        net::Packet p;
        p.dst = h.peer.mac();
        p.payloadBytes = 300;
        p.hostSg = d.sg;
        h.nic.txRing(cxt).write(i, d);
        h.nic.txRing(cxt).attachPacket(i, std::move(p));
    }
    h.nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, ring);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.txPackets(), ring);

    // Overrun onto one stale slot.
    h.nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, ring + 1);
    h.ctx.events().run();

    if (GetParam() >= 2 * ring) {
        EXPECT_TRUE(h.nic.contextFaulted(cxt))
            << "modulus " << GetParam() << " must detect the stale slot";
    } else {
        // M == ring size: stale seqno aliases the expected one exactly.
        EXPECT_FALSE(h.nic.contextFaulted(cxt))
            << "modulus " << GetParam()
            << " cannot detect a one-lap-old descriptor";
    }
}

INSTANTIATE_TEST_SUITE_P(ModulusSweep, SeqnoModulus,
                         ::testing::Values(8, 16, 32, 64, 1024));

// ------------------------------------------------------------ receive ----

TEST(CdnaNic, DemuxByMacToContexts)
{
    CdnaHarness h;
    auto a = h.makeContext(1, 10);
    auto b = h.makeContext(2, 20);
    h.postRx(a, 4);
    h.postRx(b, 4);
    h.ctx.events().run();

    net::Packet to_a;
    to_a.dst = net::MacAddr::fromId(10);
    to_a.payloadBytes = 700;
    net::Packet to_b;
    to_b.dst = net::MacAddr::fromId(20);
    to_b.payloadBytes = 900;
    h.link.port(0).send(to_a);
    h.link.port(0).send(to_b);
    h.link.port(0).send(to_b);
    h.ctx.events().run();

    // Each frame names the buffer of its context's ring slot, written
    // for payload plus headers.
    auto expect_frames = [&h](CdnaNic::ContextId cxt, std::size_t n,
                              std::uint32_t payload) {
        sim::Fifo<net::Packet> got;
        h.nic.drainRx(cxt, got);
        ASSERT_EQ(got.size(), n);
        for (std::uint32_t i = 0; i < n; ++i) {
            ASSERT_EQ(got[i].hostSg.size(), 1u) << i;
            EXPECT_EQ(got[i].hostSg[0].addr,
                      h.nic.rxRing(cxt).at(i).sg[0].addr)
                << i;
            EXPECT_EQ(got[i].hostSg[0].len, payload + net::kTcpIpHeader)
                << i;
        }
    };
    expect_frames(a, 1, 700);
    expect_frames(b, 2, 900);
    EXPECT_EQ(h.nic.rxConsumer(a), 1u);
    EXPECT_EQ(h.nic.rxConsumer(b), 2u);
    EXPECT_EQ(h.mem.violationCount(), 0u);
}

TEST(CdnaNic, UnknownMacDropped)
{
    CdnaHarness h;
    auto a = h.makeContext(1, 10);
    h.postRx(a, 4);
    h.ctx.events().run();
    net::Packet p;
    p.dst = net::MacAddr::fromId(999);
    p.payloadBytes = 100;
    h.link.port(0).send(p);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.rxPackets(), 0u);
    EXPECT_EQ(h.nic.rxDropFilter(), 1u);
}

// fromId(131) and fromId(256) hash alike (MacAddr::hash()); the NIC's
// filter must still tell them apart.
TEST(CdnaNic, DemuxSeparatesMacsThatHashAlike)
{
    CdnaHarness h;
    auto a = h.makeContext(1, 131);
    auto b = h.makeContext(2, 256);
    h.postRx(a, 4);
    h.postRx(b, 4);
    h.ctx.events().run();
    net::Packet p;
    p.payloadBytes = 100;
    p.dst = net::MacAddr::fromId(131);
    h.link.port(0).send(p);
    p.dst = net::MacAddr::fromId(256);
    h.link.port(0).send(p);
    h.link.port(0).send(p);
    h.ctx.events().run();
    sim::Fifo<net::Packet> got;
    EXPECT_EQ(h.nic.drainRx(a, got), 1u);
    EXPECT_EQ(h.nic.drainRx(b, got), 2u);
    EXPECT_EQ(h.nic.rxDropFilter(), 0u);
}

TEST(CdnaNic, RevokingOneContextKeepsTheOthersFrames)
{
    for (bool revoke_first : {true, false}) {
        SCOPED_TRACE(revoke_first ? "revoke 131" : "revoke 256");
        CdnaHarness h;
        auto a = h.makeContext(1, 131);
        auto b = h.makeContext(2, 256);
        const auto keep = revoke_first ? b : a;
        h.postRx(keep, 4);
        h.ctx.events().run();
        h.nic.revokeContext(revoke_first ? a : b);
        net::Packet p;
        p.payloadBytes = 100;
        p.dst = net::MacAddr::fromId(revoke_first ? 256 : 131);
        h.link.port(0).send(p);
        h.link.port(0).send(p);
        p.dst = net::MacAddr::fromId(revoke_first ? 131 : 256);
        h.link.port(0).send(p);
        h.ctx.events().run();
        sim::Fifo<net::Packet> got;
        EXPECT_EQ(h.nic.drainRx(keep, got), 2u);
        EXPECT_EQ(h.nic.rxDropFilter(), 1u); // the revoked MAC's frame
    }
}

TEST(CdnaNic, PromiscuousContextCatchesUnknownMacs)
{
    CdnaHarness h;
    auto a = h.makeContext(1, 10);
    h.postRx(a, 4);
    h.nic.setPromiscuousContext(a);
    h.ctx.events().run();
    net::Packet p;
    p.dst = net::MacAddr::fromId(999);
    p.payloadBytes = 100;
    h.link.port(0).send(p);
    h.ctx.events().run();
    sim::Fifo<net::Packet> got;
    EXPECT_EQ(h.nic.drainRx(a, got), 1u);
}

TEST(CdnaNic, RxDropWithoutDescriptors)
{
    CdnaHarness h;
    h.makeContext(1, 10); // owns the MAC, but posts no RX descriptors
    net::Packet p;
    p.dst = net::MacAddr::fromId(10);
    p.payloadBytes = 100;
    h.link.port(0).send(p);
    h.ctx.events().run();
    EXPECT_EQ(h.nic.rxDropNoDesc(), 1u);
}

// ------------------------------------------------- interrupt vectors ----

TEST(CdnaNic, InterruptRingCarriesContextBits)
{
    CdnaHarness h;
    auto a = h.makeContext(1, 10);
    auto b = h.makeContext(2, 20);
    mem::PageNum hv_page = h.mem.allocOne(mem::kDomHypervisor);
    h.nic.setInterruptRing(mem::addrOf(hv_page));
    int irqs = 0;
    h.nic.setIrqLine([&] { ++irqs; });

    h.queueTx(a, 400, h.peer.mac());
    h.queueTx(b, 400, h.peer.mac());
    h.doorbellTx(a);
    h.doorbellTx(b);
    h.ctx.events().run();

    ASSERT_GE(irqs, 1);
    InterruptRing *ring = h.nic.interruptRing();
    ASSERT_NE(ring, nullptr);
    std::uint32_t seen = 0;
    while (!ring->empty())
        seen |= ring->pop();
    EXPECT_EQ(seen, (1u << a) | (1u << b));
}

TEST(InterruptRing, ProducerConsumerProtocol)
{
    InterruptRing ring(4, 0x4000);
    EXPECT_TRUE(ring.empty());
    ring.push(0x1);
    ring.push(0x2);
    EXPECT_EQ(ring.producerAddr(), 0x4000u + 2 * sizeof(std::uint32_t));
    EXPECT_EQ(ring.pop(), 0x1u);
    EXPECT_EQ(ring.pop(), 0x2u);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 4; ++i)
        ring.push(i);
    EXPECT_TRUE(ring.full());
}

TEST(CdnaNic, CoalescingMergesUpdatesIntoOneVector)
{
    CdnaNicParams params;
    params.coalesce = sim::milliseconds(2); // wide window
    CdnaHarness h(params);
    auto a = h.makeContext(1, 10);
    mem::PageNum hv_page = h.mem.allocOne(mem::kDomHypervisor);
    h.nic.setInterruptRing(mem::addrOf(hv_page));
    int irqs = 0;
    h.nic.setIrqLine([&] { ++irqs; });

    for (int i = 0; i < 6; ++i)
        h.queueTx(a, 300, h.peer.mac());
    h.doorbellTx(a);
    h.ctx.events().run();
    EXPECT_EQ(irqs, 1);
}

TEST(CdnaNic, FirmwareUtilizationObservable)
{
    CdnaHarness h;
    auto a = h.makeContext(1, 10);
    h.queueTx(a, 1000, h.peer.mac());
    h.doorbellTx(a);
    h.ctx.events().run();
    EXPECT_GT(h.nic.firmwareUtilization(h.ctx.now()), 0.0);
    EXPECT_LT(h.nic.firmwareUtilization(h.ctx.now()), 1.0);
}
