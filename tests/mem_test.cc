/**
 * @file
 * Unit tests for the memory substrate: page ownership, reference
 * counting and deferred reallocation (the paper's section 3.3
 * invariants), grant table, PCI bus timing, DMA engine, IOMMU.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "mem/dma_engine.hh"
#include "mem/grant_table.hh"
#include "mem/iommu.hh"
#include "mem/pci_bus.hh"
#include "mem/phys_memory.hh"
#include "mem/sg_list.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"

using namespace cdna;
using namespace cdna::mem;

namespace {

struct MemFixture : ::testing::Test
{
    sim::SimContext ctx;
    PhysMemory mem{ctx, "phys-mem", 1024};
};

} // namespace

// ---------------------------------------------------------- ownership ----

TEST_F(MemFixture, AllocAssignsOwnership)
{
    auto pages = mem.alloc(7, 4);
    ASSERT_EQ(pages.size(), 4u);
    for (auto p : pages) {
        EXPECT_TRUE(mem.ownedBy(p, 7));
        EXPECT_FALSE(mem.ownedBy(p, 8));
    }
    EXPECT_EQ(mem.freePages(), 1020u);
}

TEST_F(MemFixture, AllocFailsWhenInsufficient)
{
    EXPECT_TRUE(mem.alloc(1, 2000).empty());
    EXPECT_EQ(mem.freePages(), 1024u); // nothing partially allocated
}

TEST_F(MemFixture, ReleaseReturnsToFreePool)
{
    PageNum p = mem.allocOne(3);
    EXPECT_TRUE(mem.release(p));
    EXPECT_EQ(mem.ownerOf(p), kDomFree);
    EXPECT_EQ(mem.freePages(), 1024u);
}

TEST_F(MemFixture, PinnedReleaseIsDeferred)
{
    // The core protection invariant: a page freed by its owner while a
    // DMA is outstanding must not be reallocatable until the pin drops.
    PageNum p = mem.allocOne(3);
    mem.getRef(p);
    EXPECT_FALSE(mem.release(p));
    EXPECT_TRUE(mem.releasePending(p));
    EXPECT_EQ(mem.ownerOf(p), 3u); // still owned while DMA outstanding

    // The page must not be in the free pool yet.
    auto other = mem.alloc(9, 1023);
    EXPECT_EQ(other.size(), 1023u);
    EXPECT_TRUE(mem.alloc(9, 1).empty());

    mem.putRef(p);
    EXPECT_EQ(mem.ownerOf(p), kDomFree);
    EXPECT_EQ(mem.alloc(9, 1).size(), 1u);
}

TEST_F(MemFixture, MultiplePinsAllMustDrop)
{
    PageNum p = mem.allocOne(3);
    mem.getRef(p);
    mem.getRef(p);
    mem.release(p);
    mem.putRef(p);
    EXPECT_EQ(mem.ownerOf(p), 3u); // one pin remains
    mem.putRef(p);
    EXPECT_EQ(mem.ownerOf(p), kDomFree);
}

TEST_F(MemFixture, TransferOwnershipFlips)
{
    PageNum p = mem.allocOne(3);
    mem.transferOwnership(p, 5);
    EXPECT_TRUE(mem.ownedBy(p, 5));
}

TEST_F(MemFixture, DmaAccessibleByOwnerAndMapper)
{
    PageNum p = mem.allocOne(3);
    EXPECT_TRUE(mem.dmaAccessibleBy(p, 3));
    EXPECT_FALSE(mem.dmaAccessibleBy(p, 4));
    mem.noteGrantMapped(p, 4);
    EXPECT_TRUE(mem.dmaAccessibleBy(p, 4));
    mem.clearGrantMapped(p);
    EXPECT_FALSE(mem.dmaAccessibleBy(p, 4));
}

TEST_F(MemFixture, DmaAccessChecksOwnershipAtAccessTime)
{
    PageNum p = mem.allocOne(3);
    EXPECT_TRUE(mem.noteDmaAccess(p, 3, true));
    EXPECT_EQ(mem.violationCount(), 0u);

    // Reallocate to another domain, then DMA on behalf of the old one.
    mem.release(p);
    mem.transferOwnership(mem.allocOne(5), 5); // no-op reassign, keeps p free
    auto q = mem.alloc(6, 1024 - 2);           // eventually reuses p
    (void)q;
    EXPECT_FALSE(mem.noteDmaAccess(p, 3, true));
    EXPECT_GE(mem.violationCount(), 1u);
    ASSERT_FALSE(mem.violations().empty());
    EXPECT_EQ(mem.violations().back().expected, 3u);
}

// ----------------------------------------------------- allocator order ----
// Every golden depends on which page numbers a run is handed, so the
// allocator's order is part of its contract.

TEST_F(MemFixture, FreshPagesAscendFromZero)
{
    EXPECT_EQ(mem.alloc(7, 4), (std::vector<PageNum>{0, 1, 2, 3}));
    EXPECT_EQ(mem.allocOne(8), 4u);
}

TEST_F(MemFixture, ReleasedPagesReusedLastFirstBeforeFresh)
{
    auto pages = mem.alloc(7, 4);
    mem.release(pages[1]);
    mem.release(pages[3]);
    EXPECT_EQ(mem.freePages(), 1022u);
    EXPECT_EQ(mem.alloc(8, 3), (std::vector<PageNum>{3, 1, 4}));
}

TEST_F(MemFixture, DeferredReleaseReentersPoolWhenPinDrops)
{
    auto pages = mem.alloc(7, 3);
    mem.getRef(pages[0]);
    EXPECT_FALSE(mem.release(pages[0]));
    EXPECT_EQ(mem.allocOne(8), 3u); // still pinned: a fresh page instead
    mem.putRef(pages[0]);
    EXPECT_EQ(mem.allocOne(8), 0u); // back in the pool, ahead of fresh
    EXPECT_EQ(mem.allocOne(8), 4u);
}

TEST_F(MemFixture, NeverAllocatedPageReadsAsFree)
{
    mem.alloc(7, 4);
    const PageNum p = 1000; // in range, never handed out
    EXPECT_EQ(mem.ownerOf(p), kDomFree);
    EXPECT_FALSE(mem.ownedBy(p, 7));
    EXPECT_FALSE(mem.dmaAccessibleBy(p, 7));
    EXPECT_EQ(mem.refCount(p), 0u);
    EXPECT_FALSE(mem.releasePending(p));

    EXPECT_FALSE(mem.noteDmaAccess(p, 7, true));
    ASSERT_EQ(mem.violations().size(), 1u);
    EXPECT_EQ(mem.violations().back().expected, 7u);
    EXPECT_EQ(mem.violations().back().actual, kDomFree);
    EXPECT_EQ(mem.freePages(), 1020u);
}

TEST_F(MemFixture, NeverAllocatedPageTakesWrites)
{
    // A grant mapping is a write: it must land on the page's own record
    // and leave the page free for the allocator.
    const PageNum p = 1000;
    mem.noteGrantMapped(p, 4);
    EXPECT_TRUE(mem.dmaAccessibleBy(p, 4));
    mem.clearGrantMapped(p);
    EXPECT_FALSE(mem.dmaAccessibleBy(p, 4));
    EXPECT_EQ(mem.ownerOf(p), kDomFree);
    EXPECT_EQ(mem.freePages(), 1024u);
}

TEST_F(MemFixture, PagePastCapacityIsInvalid)
{
    for (PageNum p : {PageNum{1024}, PageNum{1} << 40}) {
        EXPECT_FALSE(mem.ownedBy(p, kDomFree));
        EXPECT_FALSE(mem.dmaAccessibleBy(p, kDomFree));
        EXPECT_FALSE(mem.noteDmaAccess(p, 7, false));
        EXPECT_EQ(mem.violations().back().actual, kDomInvalid);
    }
    EXPECT_EQ(mem.violationCount(), 2u);
}

TEST_F(MemFixture, AllocOrThrowNamesTheShortfall)
{
    mem.alloc(7, 1000);
    try {
        mem.allocOrThrow(9, 30);
        FAIL() << "expected memory exhaustion to throw";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "out of simulated memory: domain 9 needs "
                               "30 pages, 24 of 1024 free");
    }
    EXPECT_EQ(mem.freePages(), 24u); // nothing partially allocated
    EXPECT_EQ(mem.allocOrThrow(9, 24).size(), 24u);
    EXPECT_THROW(mem.allocOne(9), std::runtime_error);
}

TEST_F(MemFixture, PageAddrRoundTrip)
{
    EXPECT_EQ(pageOf(addrOf(42)), 42u);
    EXPECT_EQ(pageOf(addrOf(42) + kPageSize - 1), 42u);
    EXPECT_EQ(pageOf(addrOf(42) + kPageSize), 43u);
}

// --------------------------------------------------------- grant table ----

TEST_F(MemFixture, GrantMapUnmapLifecycle)
{
    GrantTable gt(ctx, "grant-table", mem);
    PageNum p = mem.allocOne(2);
    GrantRef ref = gt.grantAccess(2, 1, p);
    ASSERT_NE(ref, kInvalidGrant);

    PageNum mapped = 0;
    EXPECT_TRUE(gt.mapGrant(ref, 1, &mapped));
    EXPECT_EQ(mapped, p);
    EXPECT_EQ(mem.refCount(p), 1u);
    EXPECT_TRUE(mem.dmaAccessibleBy(p, 1));

    // Cannot end a grant while mapped.
    EXPECT_FALSE(gt.endGrant(ref, 2));
    EXPECT_TRUE(gt.unmapGrant(ref, 1));
    EXPECT_EQ(mem.refCount(p), 0u);
    EXPECT_TRUE(gt.endGrant(ref, 2));
    EXPECT_EQ(gt.activeGrants(), 0u);
}

TEST_F(MemFixture, GrantOfForeignPageDenied)
{
    GrantTable gt(ctx, "grant-table", mem);
    PageNum p = mem.allocOne(2);
    EXPECT_EQ(gt.grantAccess(3, 1, p), kInvalidGrant);
}

TEST_F(MemFixture, MapByWrongDomainDenied)
{
    GrantTable gt(ctx, "grant-table", mem);
    PageNum p = mem.allocOne(2);
    GrantRef ref = gt.grantAccess(2, 1, p);
    EXPECT_FALSE(gt.mapGrant(ref, 9, nullptr));
}

TEST_F(MemFixture, MapFailsAfterOwnershipChanged)
{
    GrantTable gt(ctx, "grant-table", mem);
    PageNum p = mem.allocOne(2);
    GrantRef ref = gt.grantAccess(2, 1, p);
    mem.transferOwnership(p, 5);
    EXPECT_FALSE(gt.mapGrant(ref, 1, nullptr));
}

TEST_F(MemFixture, TransferPageRequiresUnpinned)
{
    GrantTable gt(ctx, "grant-table", mem);
    PageNum p = mem.allocOne(2);
    mem.getRef(p);
    EXPECT_FALSE(gt.transferPage(2, 3, p));
    mem.putRef(p);
    EXPECT_TRUE(gt.transferPage(2, 3, p));
    EXPECT_TRUE(mem.ownedBy(p, 3));
    EXPECT_EQ(gt.flipCount(), 1u);
}

// ------------------------------------------------------------- pci bus ----

TEST(PciBus, TransferTiming)
{
    sim::SimContext ctx;
    // 528 MB/s, 120 ns setup => 1000 bytes take 120 ns + 1893.939 ns.
    PciBus bus(ctx, "pci");
    sim::Time done_at = 0;
    bus.transfer(1000, [&] { done_at = ctx.now(); });
    ctx.events().run();
    EXPECT_EQ(done_at, sim::nanoseconds(120) + 1893939);
    EXPECT_EQ(bus.bytesCarried(), 1000u);
}

TEST(PciBus, SerializesBackToBack)
{
    sim::SimContext ctx;
    PciBus bus(ctx, "pci");
    sim::Time first = 0, second = 0;
    bus.transfer(1000, [&] { first = ctx.now(); });
    bus.transfer(1000, [&] { second = ctx.now(); });
    ctx.events().run();
    EXPECT_EQ(second, 2 * first);
    EXPECT_NEAR(bus.utilization(ctx.now()), 1.0, 1e-9);
}

TEST(PciBus, EstimateMatchesTransfer)
{
    sim::SimContext ctx;
    PciBus bus(ctx, "pci");
    sim::Time est = bus.estimate(4096);
    sim::Time got = bus.transfer(4096, [] {});
    EXPECT_EQ(est, got);
}

// ----------------------------------------------------------- dma engine ----

namespace {

struct DmaFixture : ::testing::Test
{
    sim::SimContext ctx;
    PhysMemory mem{ctx, "phys-mem", 256};
    PciBus bus{ctx, "pci"};
};

} // namespace

TEST_F(DmaFixture, SgBytesSums)
{
    SgList sg{{0, 100}, {4096, 50}};
    EXPECT_EQ(sgBytes(sg), 150u);
}

TEST_F(DmaFixture, ReadTouchesEveryPage)
{
    DmaEngine dma(ctx, "dma", bus, mem, 0);
    auto pages = mem.alloc(4, 3);
    // One SG entry spanning all three pages.
    SgList sg{{addrOf(pages[0]), 3 * static_cast<std::uint32_t>(kPageSize)}};
    bool done = false;
    dma.read(sg, 4, kWholeDevice, [&](DmaResult r) {
        done = true;
        EXPECT_TRUE(r.safe);
    });
    ctx.events().run();
    EXPECT_TRUE(done);
    EXPECT_EQ(mem.violationCount(), 0u);
    EXPECT_EQ(dma.bytesRead(), 3 * kPageSize);
}

TEST_F(DmaFixture, WrongOwnerFlagsViolation)
{
    DmaEngine dma(ctx, "dma", bus, mem, 0);
    PageNum p = mem.allocOne(4);
    SgList sg{{addrOf(p), 64}};
    bool safe = true;
    dma.write(sg, 9, kWholeDevice, [&](DmaResult r) { safe = r.safe; });
    ctx.events().run();
    EXPECT_FALSE(safe);
    EXPECT_EQ(mem.violationCount(), 1u);
}

TEST_F(DmaFixture, IommuBlocksSuppressAccess)
{
    Iommu iommu(ctx, "iommu", mem, Iommu::Mode::kPerDevice);
    DmaEngine dma(ctx, "dma", bus, mem, 0, &iommu);
    PageNum p = mem.allocOne(4);
    iommu.bindDevice(0, 5); // device bound to a different domain
    SgList sg{{addrOf(p), 64}};
    DmaResult result;
    dma.write(sg, 4, kWholeDevice, [&](DmaResult r) { result = r; });
    ctx.events().run();
    EXPECT_EQ(result.blockedPages, 1u);
    // The access never reached memory: no corruption recorded.
    EXPECT_EQ(mem.violationCount(), 0u);
}

// ---------------------------------------------------------------- iommu ----

TEST_F(DmaFixture, IommuNoneAllowsAll)
{
    Iommu iommu(ctx, "iommu", mem, Iommu::Mode::kNone);
    EXPECT_EQ(iommu.check(0, 0, 999999), IommuVerdict::kAllowed);
}

TEST_F(DmaFixture, IommuPerDeviceOwnership)
{
    Iommu iommu(ctx, "iommu", mem, Iommu::Mode::kPerDevice);
    PageNum p = mem.allocOne(4);
    EXPECT_EQ(iommu.check(0, kWholeDevice, p),
              IommuVerdict::kBlockedNoBinding);
    iommu.bindDevice(0, 4);
    EXPECT_EQ(iommu.check(0, kWholeDevice, p), IommuVerdict::kAllowed);
    iommu.bindDevice(0, 5);
    EXPECT_EQ(iommu.check(0, kWholeDevice, p),
              IommuVerdict::kBlockedOwnership);
}

TEST_F(DmaFixture, IommuPerContextBindings)
{
    // Section 5.3: a per-device IOMMU is insufficient for CDNA; the
    // per-context extension lets each context touch only its domain.
    Iommu iommu(ctx, "iommu", mem, Iommu::Mode::kPerContext);
    PageNum pa = mem.allocOne(4);
    PageNum pb = mem.allocOne(5);
    iommu.bindContext(0, 1, 4);
    iommu.bindContext(0, 2, 5);
    EXPECT_EQ(iommu.check(0, 1, pa), IommuVerdict::kAllowed);
    EXPECT_EQ(iommu.check(0, 2, pb), IommuVerdict::kAllowed);
    EXPECT_EQ(iommu.check(0, 1, pb), IommuVerdict::kBlockedOwnership);
    EXPECT_EQ(iommu.check(0, 2, pa), IommuVerdict::kBlockedOwnership);
    iommu.unbindContext(0, 2);
    EXPECT_EQ(iommu.check(0, 2, pb), IommuVerdict::kBlockedNoBinding);
}

TEST_F(DmaFixture, IommuPerContextWholeDeviceFallsBack)
{
    Iommu iommu(ctx, "iommu", mem, Iommu::Mode::kPerContext);
    PageNum hv = mem.allocOne(kDomHypervisor);
    iommu.bindDevice(0, kDomHypervisor);
    EXPECT_EQ(iommu.check(0, kWholeDevice, hv), IommuVerdict::kAllowed);
}

// ------------------------------------------------------------- SG list ----

namespace {

/** A 64 KiB TSO segment starting mid-page: one entry per page, 17. */
SgList
tsoSegment()
{
    SgList sg;
    std::uint64_t left = 64 * 1024;
    PhysAddr at = addrOf(100) + 512;
    while (left > 0) {
        auto len = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(left, kPageSize - at % kPageSize));
        sg.push_back({at, len});
        at += len;
        left -= len;
    }
    return sg;
}

std::vector<std::pair<PhysAddr, std::uint32_t>>
entries(const SgList &sg)
{
    std::vector<std::pair<PhysAddr, std::uint32_t>> out;
    for (const SgEntry &e : sg)
        out.emplace_back(e.addr, e.len);
    return out;
}

} // namespace

TEST(SgList, TwoEntriesInlineThenSpills)
{
    SgList sg;
    EXPECT_TRUE(sg.empty());
    sg.push_back({addrOf(1) + 100, 3996});
    sg.push_back({addrOf(2), 1000});
    // Both live inside the object.
    const auto *obj = reinterpret_cast<const char *>(&sg);
    const auto *first = reinterpret_cast<const char *>(sg.data());
    EXPECT_TRUE(first >= obj && first < obj + sizeof(SgList));
    sg.push_back({addrOf(3), 10}); // the third entry goes to the heap
    first = reinterpret_cast<const char *>(sg.data());
    EXPECT_FALSE(first >= obj && first < obj + sizeof(SgList));
    EXPECT_EQ(entries(sg), (std::vector<std::pair<PhysAddr, std::uint32_t>>{
                               {addrOf(1) + 100, 3996},
                               {addrOf(2), 1000},
                               {addrOf(3), 10}}));

    SgList tso = tsoSegment();
    EXPECT_EQ(tso.size(), 17u);
    EXPECT_EQ(sgBytes(tso), 64u * 1024);
    EXPECT_EQ(sgPages(tso), 17u);
}

TEST(SgList, CopiesAndMovesInlineAndSpilledLists)
{
    SgList small{{addrOf(4), 1500}, {addrOf(5), 10}};
    SgList tso = tsoSegment();
    const auto small_e = entries(small);
    const auto tso_e = entries(tso);

    SgList small_copy = small;
    SgList tso_copy = tso;
    EXPECT_EQ(entries(small_copy), small_e);
    EXPECT_EQ(entries(tso_copy), tso_e);
    EXPECT_NE(tso_copy.data(), tso.data()); // a deep copy
    tso_copy[0].len = 1;
    EXPECT_EQ(entries(tso), tso_e);

    // Assignment across the two representations, both ways.
    SgList a = small;
    a = tso;
    EXPECT_EQ(entries(a), tso_e);
    a = small;
    EXPECT_EQ(entries(a), small_e);

    const SgEntry *heap = tso.data();
    SgList tso_moved = std::move(tso);
    EXPECT_EQ(tso_moved.data(), heap); // the heap block changes hands
    EXPECT_EQ(entries(tso_moved), tso_e);
    SgList small_moved = std::move(small);
    EXPECT_EQ(entries(small_moved), small_e);

    SgList b;
    b = std::move(tso_moved);
    EXPECT_EQ(entries(b), tso_e);
    b = std::move(small_moved);
    EXPECT_EQ(entries(b), small_e);

    static_assert(std::is_nothrow_move_constructible_v<SgList>);
    static_assert(std::is_nothrow_move_assignable_v<SgList>);
}

TEST(SgList, MovedFromListIsEmptyAndReusable)
{
    for (SgList src : {SgList{{addrOf(6), 64}}, tsoSegment()}) {
        SgList dst = std::move(src);
        EXPECT_FALSE(dst.empty());
        EXPECT_TRUE(src.empty()); // NOLINT: the moved-from state is defined
        EXPECT_EQ(src.size(), 0u);
        src.push_back({addrOf(7), 8});
        src.push_back({addrOf(8), 8});
        src.push_back({addrOf(9), 8});
        EXPECT_EQ(entries(src),
                  (std::vector<std::pair<PhysAddr, std::uint32_t>>{
                      {addrOf(7), 8}, {addrOf(8), 8}, {addrOf(9), 8}}));
    }
    SgList l = tsoSegment();
    l.clear();
    EXPECT_TRUE(l.empty());
    l.push_back({addrOf(10), 4});
    EXPECT_EQ(l.front().addr, addrOf(10));
}

TEST(SgList, SpanViewsTheEntries)
{
    SgList small{{addrOf(11), 100}, {addrOf(12), 200}};
    std::span<const SgEntry> v = small;
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v.data(), small.data());
    EXPECT_EQ(v[1].len, 200u);
    EXPECT_EQ(sgBytes(small), 300u);

    SgList tso = tsoSegment();
    std::span<const SgEntry> tv = tso;
    EXPECT_EQ(tv.size(), 17u);
    EXPECT_EQ(tv.data(), tso.data());
    SgList prefix = sgPrefix(tso, 5000);
    EXPECT_EQ(sgBytes(prefix), 5000u);
    EXPECT_EQ(prefix.size(), 2u);
    EXPECT_EQ(prefix[0].addr, tso[0].addr);
}

TEST_F(MemFixture, GrantTableKeepsManyLiveGrantsAcrossGrowth)
{
    // Grants ended out of issue order while the table grows and
    // shrinks its probe runs: every live ref still maps, every ended
    // one is gone.
    GrantTable gt(ctx, "grant-table", mem);
    sim::Rng rng(5);
    std::map<GrantRef, PageNum> live;
    std::vector<PageNum> pages;
    for (int i = 0; i < 40; ++i)
        pages.push_back(mem.allocOne(2));
    for (int round = 0; round < 3000; ++round) {
        if (live.size() < 300 && rng.chance(0.6)) {
            PageNum p = pages[rng.below(pages.size())];
            GrantRef ref = gt.grantAccess(2, 1, p);
            ASSERT_NE(ref, kInvalidGrant);
            live.emplace(ref, p);
        } else if (!live.empty()) {
            auto it = std::next(live.begin(),
                                static_cast<long>(rng.below(live.size())));
            ASSERT_TRUE(gt.endGrant(it->first, 2));
            EXPECT_FALSE(gt.endGrant(it->first, 2));
            live.erase(it);
        }
        ASSERT_EQ(gt.activeGrants(), live.size());
    }
    for (const auto &[ref, page] : live) {
        PageNum got = 0;
        ASSERT_TRUE(gt.mapGrant(ref, 1, &got)) << ref;
        EXPECT_EQ(got, page);
        EXPECT_TRUE(gt.unmapGrant(ref, 1));
    }
}
