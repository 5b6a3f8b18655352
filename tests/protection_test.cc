/**
 * @file
 * Unit tests for DmaProtection, the hypervisor half of CDNA's DMA
 * memory protection (paper section 3.3): ownership validation, page
 * pinning with lazy unpin, sequence-number stamping, ring-full
 * handling, and the unprotected direct path.
 */

#include <gtest/gtest.h>

#include "core/cdna_nic.hh"
#include "core/dma_protection.hh"
#include "net/eth_link.hh"
#include "net/traffic_peer.hh"
#include "sim/sim_object.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

struct ProtFixture : ::testing::Test
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 8192};
    cpu::SimCpu cpu{ctx, "cpu"};
    vmm::Hypervisor hv{ctx, cpu, mem};
    mem::PciBus bus{ctx, "pci"};
    net::EthLink link{ctx, "eth"};
    net::TrafficPeer peer{ctx, "peer", link};
    CostModel costs;
    CdnaNic nic{ctx, "cdna", bus, mem, 0, link};

    vmm::Domain *guest = nullptr;
    CdnaNic::ContextId cxt = 0;

    void
    SetUp() override
    {
        guest = &hv.createDomain(vmm::Domain::Kind::kGuest, "g");
        cxt = nic.allocContext(guest->id(), net::MacAddr::fromId(1));
        nic.configureContextRings(cxt, 8, mem::addrOf(mem.allocOne(guest->id())),
                                  8, mem::addrOf(mem.allocOne(guest->id())));
        nic.setFaultHandler([this](CdnaNic::ContextId, mem::DomainId dom,
                                   vmm::Fault f) { hv.recordFault(dom, f); });
    }

    DmaProtection::Request
    makeReq(mem::PageNum page, std::uint32_t len = 1000)
    {
        DmaProtection::Request r;
        r.sg = {{mem::addrOf(page), len}};
        net::Packet p;
        p.dst = peer.mac();
        p.payloadBytes = len;
        p.hostSg = r.sg;
        r.pkt = std::move(p);
        return r;
    }
};

} // namespace

TEST_F(ProtFixture, ValidEnqueueStampsAndPins)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);

    mem::PageNum page = mem.allocOne(guest->id());
    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(makeReq(page));

    DmaProtection::Result res;
    bool done = false;
    prot.enqueue(h, std::move(reqs), [&](DmaProtection::Result r) {
        res = r;
        done = true;
    });
    ctx.events().run();

    ASSERT_TRUE(done);
    EXPECT_EQ(res.fault, vmm::Fault::kNone);
    EXPECT_EQ(res.accepted, 1u);
    EXPECT_EQ(res.producer, 1u);
    EXPECT_EQ(mem.refCount(page), 1u); // pinned for the DMA
    const auto &desc = nic.txRing(cxt).at(0);
    EXPECT_TRUE(desc.valid());
    EXPECT_EQ(desc.seqno, 1u);
    EXPECT_EQ(prot.pagesPinned(), 1u);
}

TEST_F(ProtFixture, ForeignPageRejected)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);

    vmm::Domain &victim = hv.createDomain(vmm::Domain::Kind::kGuest, "v");
    mem::PageNum stolen = mem.allocOne(victim.id());

    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(makeReq(stolen));
    DmaProtection::Result res;
    prot.enqueue(h, std::move(reqs),
                 [&](DmaProtection::Result r) { res = r; });
    ctx.events().run();

    EXPECT_EQ(res.fault, vmm::Fault::kNotOwner);
    EXPECT_EQ(res.accepted, 0u);
    EXPECT_EQ(mem.refCount(stolen), 0u);
    EXPECT_FALSE(nic.txRing(cxt).at(0).valid());
    EXPECT_EQ(prot.validationFailures(), 1u);
    EXPECT_EQ(hv.faultCount(guest->id(), vmm::Fault::kNotOwner), 1u);
}

TEST_F(ProtFixture, BatchStopsAtFirstBadDescriptor)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);
    vmm::Domain &victim = hv.createDomain(vmm::Domain::Kind::kGuest, "v");

    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(makeReq(mem.allocOne(guest->id())));
    reqs.push_back(makeReq(mem.allocOne(victim.id()))); // bad
    reqs.push_back(makeReq(mem.allocOne(guest->id())));

    DmaProtection::Result res;
    prot.enqueue(h, std::move(reqs),
                 [&](DmaProtection::Result r) { res = r; });
    ctx.events().run();

    EXPECT_EQ(res.fault, vmm::Fault::kNotOwner);
    EXPECT_EQ(res.accepted, 1u); // only the first got in
    EXPECT_EQ(res.producer, 1u);
}

TEST_F(ProtFixture, LazyUnpinAfterCompletion)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);

    mem::PageNum first = mem.allocOne(guest->id());
    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(makeReq(first));
    prot.enqueue(h, std::move(reqs), [&](DmaProtection::Result r) {
        nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, r.producer);
    });
    ctx.events().run(); // transmit completes; consumer advances
    EXPECT_EQ(nic.txConsumer(cxt), 1u);
    // Still pinned: unpin is lazy ("only when additional DMA
    // descriptors are enqueued").
    EXPECT_EQ(mem.refCount(first), 1u);

    // The next enqueue performs the deferred unpin.
    std::vector<DmaProtection::Request> more;
    more.push_back(makeReq(mem.allocOne(guest->id())));
    prot.enqueue(h, std::move(more), {});
    ctx.events().run();
    EXPECT_EQ(mem.refCount(first), 0u);
    EXPECT_EQ(prot.pagesUnpinned(), 1u);
}

TEST_F(ProtFixture, FreedPageStaysUntilDmaDone)
{
    // The reallocation-delay guarantee: the guest releases a page right
    // after enqueueing it; the release must be deferred until the NIC
    // is done with it.
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);

    mem::PageNum page = mem.allocOne(guest->id());
    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(makeReq(page));
    prot.enqueue(h, std::move(reqs), [&](DmaProtection::Result r) {
        // Malicious/buggy: free the page immediately after enqueue.
        EXPECT_FALSE(mem.release(page)); // deferred, still pinned
        nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, r.producer);
    });
    ctx.events().run();
    // DMA has completed safely; no corruption was possible.
    EXPECT_EQ(mem.violationCount(), 0u);
    EXPECT_EQ(mem.ownerOf(page), guest->id()); // still deferred

    std::vector<DmaProtection::Request> more;
    more.push_back(makeReq(mem.allocOne(guest->id())));
    prot.enqueue(h, std::move(more), {});
    ctx.events().run();
    // Unpinned -> the deferred release finally happened.
    EXPECT_EQ(mem.ownerOf(page), mem::kDomFree);
}

TEST_F(ProtFixture, RingFullRejected)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);

    std::vector<DmaProtection::Request> reqs;
    for (int i = 0; i < 10; ++i) // ring holds 8
        reqs.push_back(makeReq(mem.allocOne(guest->id())));
    DmaProtection::Result res;
    prot.enqueue(h, std::move(reqs),
                 [&](DmaProtection::Result r) { res = r; });
    ctx.events().run();
    EXPECT_EQ(res.fault, vmm::Fault::kRingFull);
    EXPECT_EQ(res.accepted, 8u);
}

TEST_F(ProtFixture, SyncUnpinReleasesCompleted)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);
    mem::PageNum page = mem.allocOne(guest->id());
    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(makeReq(page));
    prot.enqueue(h, std::move(reqs), [&](DmaProtection::Result r) {
        nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, r.producer);
    });
    ctx.events().run();
    EXPECT_EQ(mem.refCount(page), 1u);
    prot.syncUnpin(h);
    EXPECT_EQ(mem.refCount(page), 0u);
}

TEST_F(ProtFixture, UnpinAllAtTeardown)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);
    std::vector<mem::PageNum> pages;
    std::vector<DmaProtection::Request> reqs;
    for (int i = 0; i < 4; ++i) {
        pages.push_back(mem.allocOne(guest->id()));
        reqs.push_back(makeReq(pages.back()));
    }
    prot.enqueue(h, std::move(reqs), {});
    ctx.events().run();
    for (auto p : pages)
        EXPECT_EQ(mem.refCount(p), 1u);
    prot.unpinAll(h);
    for (auto p : pages)
        EXPECT_EQ(mem.refCount(p), 0u);
}

TEST_F(ProtFixture, RingRecordsPinsAcrossAFullLap)
{
    // The ring is the only record of what is pinned.  Fill it with
    // two-page descriptors and complete them all; the second lap's
    // enqueue must unpin exactly the first lap's pages from the slots
    // it is about to rewrite, and teardown must unpin the second lap.
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);
    const std::uint32_t slots = nic.txRing(cxt).size();

    auto lap = [&](std::vector<mem::PageNum> &pages) {
        std::vector<DmaProtection::Request> reqs;
        for (std::uint32_t i = 0; i < slots; ++i) {
            mem::PageNum a = mem.allocOne(guest->id());
            mem::PageNum b = mem.allocOne(guest->id());
            pages.insert(pages.end(), {a, b});
            DmaProtection::Request r = makeReq(a);
            r.sg.push_back({mem::addrOf(b), 1000});
            reqs.push_back(std::move(r));
        }
        return reqs;
    };

    std::vector<mem::PageNum> first;
    DmaProtection::Result res;
    prot.enqueue(h, lap(first), [&](DmaProtection::Result r) {
        res = r;
        nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, r.producer);
    });
    ctx.events().run();
    ASSERT_EQ(res.accepted, slots);
    ASSERT_EQ(nic.txConsumer(cxt), slots); // every DMA completed
    for (auto p : first)
        EXPECT_EQ(mem.refCount(p), 1u); // unpin is lazy

    std::vector<mem::PageNum> second;
    prot.enqueue(h, lap(second),
                 [&](DmaProtection::Result r) { res = r; });
    ctx.events().run();
    EXPECT_EQ(res.fault, vmm::Fault::kNone);
    EXPECT_EQ(res.accepted, slots);
    for (auto p : first)
        EXPECT_EQ(mem.refCount(p), 0u);
    for (auto p : second)
        EXPECT_EQ(mem.refCount(p), 1u);
    EXPECT_EQ(prot.pagesUnpinned(), first.size());

    prot.unpinAll(h);
    for (auto p : first)
        EXPECT_EQ(mem.refCount(p), 0u);
    for (auto p : second)
        EXPECT_EQ(mem.refCount(p), 0u);
    EXPECT_EQ(prot.pagesUnpinned(), first.size() + second.size());
}

TEST_F(ProtFixture, DirectEnqueueSkipsEverything)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, false);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);

    vmm::Domain &victim = hv.createDomain(vmm::Domain::Kind::kGuest, "v");
    mem::PageNum stolen = mem.allocOne(victim.id());

    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(makeReq(stolen)); // would be rejected with protection
    DmaProtection::Result res;
    bool done = false;
    prot.enqueue(h, std::move(reqs), [&](DmaProtection::Result r) {
        res = r;
        done = true;
    });
    ASSERT_TRUE(done); // the guest wrote the ring itself, synchronously
    EXPECT_EQ(res.fault, vmm::Fault::kNone);
    EXPECT_EQ(res.accepted, 1u);
    EXPECT_EQ(mem.refCount(stolen), 0u); // nothing pinned
    EXPECT_EQ(nic.txRing(cxt).at(0).seqno, 0u); // nothing stamped
    EXPECT_EQ(hv.hypercallCount(), 0u); // no hypervisor involvement
}

TEST_F(ProtFixture, MultiPageScatterGatherValidatedPerPage)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);
    vmm::Domain &victim = hv.createDomain(vmm::Domain::Kind::kGuest, "v");

    mem::PageNum mine = mem.allocOne(guest->id());
    mem::PageNum theirs = mem.allocOne(victim.id());
    DmaProtection::Request r;
    r.sg = {{mem::addrOf(mine), 4096}, {mem::addrOf(theirs), 4096}};
    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(std::move(r));

    DmaProtection::Result res;
    prot.enqueue(h, std::move(reqs),
                 [&](DmaProtection::Result out) { res = out; });
    ctx.events().run();
    EXPECT_EQ(res.fault, vmm::Fault::kNotOwner);
    EXPECT_EQ(res.accepted, 0u);
    EXPECT_EQ(mem.refCount(mine), 0u); // no partial pins leaked
}

TEST_F(ProtFixture, ZeroLengthEntriesSpanNoPages)
{
    // A zero-length entry spans no pages wherever it points: at a page
    // the guest owns, and at address 0, where its last byte would wrap
    // to the top of the address space.  Both get the same verdict, are
    // charged and pinned for no page, and their DMA touches nothing.
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);
    std::vector<DmaProtection::Request> reqs(2);
    reqs[0].sg = {{mem::addrOf(mem.allocOne(guest->id())), 0}};
    reqs[1].sg = {{0, 0}};
    DmaProtection::Result res;
    prot.enqueue(h, std::move(reqs),
                 [&](DmaProtection::Result out) { res = out; });
    ctx.events().run();
    EXPECT_EQ(res.fault, vmm::Fault::kNone);
    EXPECT_EQ(res.accepted, 2u);
    EXPECT_EQ(prot.pagesPinned(), 0u);
    EXPECT_EQ(cpu.profile().hypervisor(),
              costs.hv.hypercallOverhead + 2 * costs.protEnqueuePerDesc);

    nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, res.producer);
    ctx.events().run();
    EXPECT_EQ(nic.txConsumer(cxt), 2u);
    EXPECT_EQ(mem.violationCount(), 0u);
}

TEST_F(ProtFixture, EnqueueChargesHypervisorTime)
{
    DmaProtection prot(ctx, "dma-protection", hv, costs, true);
    auto h = prot.registerRing(nic, cxt, guest->id(), true);
    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(makeReq(mem.allocOne(guest->id())));
    prot.enqueue(h, std::move(reqs), {});
    ctx.events().run();
    sim::Time expected = costs.hv.hypercallOverhead +
                         costs.protValidatePerPage + costs.protPinPerPage +
                         costs.protEnqueuePerDesc;
    EXPECT_EQ(cpu.profile().hypervisor(), expected);
}
