/**
 * @file
 * Virtual-context oversubscription: paging per-guest CDNA context
 * state in and out of the NIC's fixed physical slots exactly when the
 * guests outnumber them, the hypervisor pager that drives it, the
 * memory-exhaustion diagnostic, and the uint32 ring-index wraparound
 * fixes that the paging machinery pinned down.
 *
 * The paper's NIC holds 32 hardware contexts; everything here is about
 * running more guests than that.  Suites are named Oversub* /
 * ContextPage* so CI can select them with -R "Oversub|ContextPage".
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/cdna_nic.hh"
#include "core/context_pager.hh"
#include "core/system.hh"
#include "cpu/sim_cpu.hh"
#include "mem/grant_table.hh"
#include "net/eth_link.hh"
#include "net/traffic_peer.hh"
#include "sim/sweep.hh"
#include "sim/sweep_presets.hh"
#include "vmm/hypervisor.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

/** NIC-level harness mirroring the one in cdna_nic_test.cc. */
struct OversubHarness
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

    explicit OversubHarness(CdnaNicParams params = {})
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
};

/** CDNA with @p guests on one NIC: past 32 guests their contexts page. */
SystemConfig
cdnaOneNic(std::uint32_t guests)
{
    return SystemConfig::cdna(guests).withNics(1);
}

} // namespace

// --------------------------------------------- paging is derived ----

TEST(Oversub, PagesExactlyWhenGuestsOutnumberSlots)
{
    // As many guests as contexts: every guest keeps its own, and the
    // pager never runs.
    System fit(cdnaOneNic(nic::kMaxContexts));
    Report r = fit.run(sim::milliseconds(5), sim::milliseconds(20));
    EXPECT_EQ(r.label, "cdna/tx");
    EXPECT_EQ(r.cxtPageTraps, 0u);

    // One guest more, and the contexts page over the 32.
    System over(cdnaOneNic(nic::kMaxContexts + 1));
    r = over.run(sim::milliseconds(5), sim::milliseconds(20));
    EXPECT_EQ(r.label, "cdna/tx/oversub");
    EXPECT_GT(r.cxtPageTraps, 0u);
    EXPECT_LE(r.cxtResidentPeak, nic::kMaxContexts);

    // The same holds for a NIC with fewer contexts.
    SystemConfig small = cdnaOneNic(4);
    small.cdnaContexts = 2;
    System paged(small);
    r = paged.run(sim::milliseconds(5), sim::milliseconds(20));
    EXPECT_EQ(r.label, "cdna/tx/oversub");
    EXPECT_GT(r.cxtPageTraps, 0u);
    EXPECT_LE(r.cxtResidentPeak, 2u);
}

// ------------------------------------------ exhaustion diagnostic ----

TEST(Oversub, GuestPastMemoryThrowsClearDiagnostic)
{
    // 400 Xen guests do not fit in the machine's 1 GB.  The guest that
    // runs out must fail with a diagnostic naming the domain and the
    // shortfall -- not an assert in whichever component asked.
    try {
        System sys(SystemConfig::xenIntel(400));
        sys.start();
        FAIL() << "expected memory exhaustion to throw";
    } catch (const std::runtime_error &e) {
        std::string what = e.what();
        EXPECT_NE(what.find("out of simulated memory: domain "),
                  std::string::npos)
            << what;
        EXPECT_NE(what.find(" of 262144 free"), std::string::npos) << what;
    }
}

// --------------------------------------------- graceful degradation ----

TEST(Oversub, GracefulDegradationPastPhysicalContexts)
{
    // 40 hot guests over 32 slots: traffic flows, paging churns, and
    // nothing leaks -- no protection faults, no grant imbalance, no
    // availability downtime charged to evicted-but-healthy guests.
    System sys(cdnaOneNic(40));
    Report r = sys.run(sim::milliseconds(5), sim::milliseconds(20));

    EXPECT_GT(r.mbps, 0.0);
    EXPECT_EQ(r.protectionFaults, 0u);
    EXPECT_EQ(r.dmaViolations, 0u);
    EXPECT_GT(r.cxtPageTraps, 0u);
    EXPECT_GT(r.cxtEvictions, 0u);
    EXPECT_GT(r.cxtPageIns, 0u);
    EXPECT_LE(r.cxtResidentPeak, nic::kMaxContexts);

    // Eviction is not an outage: a paged-out guest pages back in on
    // its next doorbell, well inside the availability grace window.
    ASSERT_EQ(r.perGuestDowntimeUs.size(), 40u);
    for (double d : r.perGuestDowntimeUs)
        EXPECT_EQ(d, 0.0);
}

TEST(Oversub, GrantsStayRevocableWhilePagedOut)
{
    // Grant-table operations are hypervisor state, independent of NIC
    // residency: a guest whose context is paged out can still issue,
    // serve, and retire grants.
    SystemConfig cfg = cdnaOneNic(8);
    cfg.cdnaContexts = 4;
    System sys(cfg);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(10));

    CdnaNic &nic = *sys.cdnaNic(0);
    int victim = -1;
    for (std::uint32_t g = 0; g < 8; ++g)
        if (!nic.contextResident(sys.cdnaDriver(g, 0)->context())) {
            victim = static_cast<int>(g);
            break;
        }
    ASSERT_GE(victim, 0) << "no guest paged out with 8 guests on 4 slots";

    mem::DomainId from = sys.guestDomain(victim)->id();
    mem::DomainId to = sys.guestDomain((victim + 1) % 8)->id();
    mem::GrantTable &grants = sys.hv().grants();
    mem::PageNum page = sys.mem().allocOne(from);
    mem::GrantRef ref = grants.grantAccess(from, to, page);
    mem::PageNum mapped = 0;
    EXPECT_TRUE(grants.mapGrant(ref, to, &mapped));
    EXPECT_EQ(mapped, page);
    EXPECT_TRUE(grants.unmapGrant(ref, to));
    EXPECT_TRUE(grants.endGrant(ref, from));
}

// ------------------------------------------------- NIC-level paging ----

TEST(ContextPage, AllocBeyondPhysicalSlotsStartsPagedOut)
{
    CdnaNicParams params;
    params.numContexts = 2;
    OversubHarness h(params);
    auto a = h.makeContext(1, 1);
    auto b = h.makeContext(2, 2);
    auto c = h.makeContext(3, 3);
    EXPECT_TRUE(h.nic.contextResident(a));
    EXPECT_TRUE(h.nic.contextResident(b));
    EXPECT_FALSE(h.nic.contextResident(c));
    EXPECT_EQ(h.nic.freeSlots(), 0u);
    EXPECT_EQ(h.nic.allocatedContexts(), 3u);
    EXPECT_EQ(h.nic.residentPeak(), 2u);
}

TEST(ContextPage, DoorbellToPagedOutTrapsAndReplays)
{
    CdnaNicParams params;
    params.numContexts = 1;
    OversubHarness h(params);
    auto a = h.makeContext(1, 1);
    auto b = h.makeContext(2, 2);
    ASSERT_FALSE(h.nic.contextResident(b));

    std::vector<CdnaNic::ContextId> traps;
    h.nic.setPageFaultHandler(
        [&](CdnaNic::ContextId id) { traps.push_back(id); });

    // Ring the paged-out context: the work is staged in its saved
    // mailbox image and the access traps.
    h.queueTx(b, 1500, h.peer.mac());
    h.doorbellTx(b);
    h.ctx.events().run();
    ASSERT_EQ(traps.size(), 1u);
    EXPECT_EQ(traps[0], b);
    EXPECT_EQ(h.nic.pageTraps(), 1u);
    EXPECT_EQ(h.peer.payloadReceived(), 0u);

    // Manual switch: evict the idle resident, restore the fault
    bool evicted = false;
    h.nic.pageOutContext(a, [&] { evicted = true; });
    h.ctx.events().run();
    ASSERT_TRUE(evicted);
    EXPECT_FALSE(h.nic.contextResident(a));
    ASSERT_EQ(h.nic.freeSlots(), 1u);

    h.nic.pageInContext(b);
    h.nic.replayDoorbells(b);
    h.ctx.events().run();
    EXPECT_TRUE(h.nic.contextResident(b));
    // The doorbell rung while paged out was replayed from the mailbox
    // image -- the staged frame goes out with no second ring.
    EXPECT_EQ(h.peer.payloadReceived(), 1500u);
    EXPECT_EQ(h.nic.pageIns(), 1u);
    EXPECT_EQ(h.nic.seqnoFaults(), 0u);
}

// ------------------------------------------------ hypervisor pager ----

namespace {

/** Harness with a real hypervisor and pager wired to the NIC. */
struct PagerHarness : OversubHarness
{
    cpu::SimCpu cpu{ctx, "cpu"};
    vmm::Hypervisor hv{ctx, cpu, mem};
    ContextPager pager;

    explicit PagerHarness(CdnaNicParams params)
        : OversubHarness(params), pager(ctx, "pager", hv, nic)
    {
        nic.setPageFaultHandler(
            [this](CdnaNic::ContextId id) { pager.onTrap(id); });
    }
};

} // namespace

TEST(ContextPage, PagerRestoresFaultingContextEndToEnd)
{
    CdnaNicParams params;
    params.numContexts = 2;
    PagerHarness h(params);
    auto a = h.makeContext(1, 1);
    auto b = h.makeContext(2, 2);
    auto c = h.makeContext(3, 3);

    // Warm both residents so each has a recent activity time.
    h.queueTx(a, 1000, h.peer.mac());
    h.doorbellTx(a);
    h.queueTx(b, 1000, h.peer.mac());
    h.doorbellTx(b);
    h.ctx.events().run();
    EXPECT_EQ(h.peer.payloadReceived(), 2000u);

    // Fault the third context in: trap -> evict -> save -> restore ->
    // doorbell replay, all through the pager's cost-modelled path.
    h.queueTx(c, 2000, h.peer.mac());
    h.doorbellTx(c);
    h.ctx.events().run();

    EXPECT_TRUE(h.nic.contextResident(c));
    EXPECT_EQ(h.peer.payloadReceived(), 4000u);
    EXPECT_GE(h.nic.pageTraps(), 1u);
    EXPECT_EQ(h.nic.pageEvictions(), 1u);
    EXPECT_EQ(h.nic.pageIns(), 1u);
    EXPECT_GE(h.hv.contextTrapCount(), 1u);
    // Exactly one of the two original residents was displaced.
    EXPECT_NE(h.nic.contextResident(a), h.nic.contextResident(b));
}

TEST(ContextPage, PagerEvictsLeastRecentlyActive)
{
    CdnaNicParams params;
    params.numContexts = 2;
    OversubHarness h(params);
    cpu::SimCpu cpu{h.ctx, "cpu"};
    vmm::Hypervisor hv{h.ctx, cpu, h.mem};
    ContextPager pager(h.ctx, "pager", hv, h.nic);

    auto a = h.makeContext(1, 1);
    auto b = h.makeContext(2, 2);
    h.makeContext(3, 3); // paged out; makes both residents candidates

    // Context a: heavy traffic, but long ago.  Context b: idle, but
    // touched recently.  The pager evicts the stale-but-busy a.
    for (int i = 0; i < 4; ++i)
        h.queueTx(a, 1000, h.peer.mac());
    h.doorbellTx(a);
    h.ctx.events().run();
    h.ctx.events().runUntil(h.ctx.now() + sim::milliseconds(1));
    h.nic.pioWriteMailbox(b, nic::kMboxRxProducer, 0);

    ASSERT_LT(h.nic.contextLastActive(a), h.nic.contextLastActive(b));
    EXPECT_EQ(pager.pickVictim(), std::optional<CdnaNic::ContextId>(a));
}

// --------------------------------------------- uint32 wraparound ----

TEST(ContextPageWrap, RingIndicesSurviveWraparoundAndReboot)
{
    // Free-running ring indices are uint32 by design; completion
    // counts (and therefore seqnos) are 64-bit.  Start a context six
    // descriptors shy of UINT32_MAX, push traffic across the wrap,
    // then reboot the firmware: the post-reboot seqno realignment must
    // come from the 64-bit completion stream, not the wrapped 32-bit
    // consumer index (the pre-fix code truncated and faulted here).
    OversubHarness h;
    auto cxt = h.makeContext(1, 1, 16);
    const std::uint32_t base = 0xFFFFFFFAu;
    const std::uint64_t done64 = (1ull << 32) | base;
    h.nic.seedContextCounters(cxt, base, done64, base, done64);
    h.producers[cxt] = base;
    h.seqnos[cxt] = done64 + 1;
    h.rxProducers[cxt] = base;
    h.rxSeqnos[cxt] = done64 + 1;

    for (int i = 0; i < 12; ++i)
        h.queueTx(cxt, 1000, h.peer.mac());
    h.doorbellTx(cxt);
    h.ctx.events().run();
    EXPECT_EQ(h.peer.payloadReceived(), 12000u);
    EXPECT_EQ(h.nic.seqnoFaults(), 0u);

    h.nic.rebootFirmware(sim::microseconds(50), sim::microseconds(1));
    h.ctx.events().run();
    for (int i = 0; i < 4; ++i)
        h.queueTx(cxt, 1000, h.peer.mac());
    h.doorbellTx(cxt);
    h.ctx.events().run();
    EXPECT_EQ(h.peer.payloadReceived(), 16000u);
    EXPECT_EQ(h.nic.seqnoFaults(), 0u);
    EXPECT_FALSE(h.nic.contextFaulted(cxt));
}

// -------------------------------------------------- sweep contract ----

namespace {

sim::ExperimentSpec
miniOversubSpec()
{
    return sim::ExperimentSpec("mini-oversub")
        .config("cdna-ov", cdnaOneNic)
        .guests({8, 40})
        .seeds(1)
        .warmup(sim::milliseconds(2))
        .measure(sim::milliseconds(8));
}

} // namespace

TEST(OversubSweep, DeterministicAcrossJobCounts)
{
    sim::SweepOptions j1;
    j1.jobs = 1;
    sim::SweepOptions j8;
    j8.jobs = 8;
    auto a = sim::runSweep(miniOversubSpec(), j1);
    auto b = sim::runSweep(miniOversubSpec(), j8);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i)
        EXPECT_EQ(a.runs[i].json, b.runs[i].json)
            << a.runs[i].point.cell;
    EXPECT_EQ(sim::sweepToJson(a), sim::sweepToJson(b));
}

TEST(OversubSweep, SingleSeedReportsZeroSpreadNotNan)
{
    sim::SweepOptions opt;
    opt.jobs = 2;
    auto result = sim::runSweep(miniOversubSpec(), opt);
    ASSERT_FALSE(result.cells.empty());
    for (const auto &cell : result.cells) {
        EXPECT_EQ(cell.runs, 1u);
        for (const auto &[name, stats] : cell.metrics) {
            EXPECT_EQ(stats.stddev, 0.0) << cell.cell << "/" << name;
            EXPECT_EQ(stats.ci95, 0.0) << cell.cell << "/" << name;
            EXPECT_FALSE(std::isnan(stats.mean))
                << cell.cell << "/" << name;
        }
    }
}

TEST(OversubSweep, PresetRegisteredAndWellFormed)
{
    auto spec = sim::presets::byName("oversub");
    ASSERT_TRUE(spec.has_value());
    auto points = spec->expand();
    // 2 configs x 6 guest counts; cdna pages from 64 guests on (its
    // label says so), xen never does.
    ASSERT_EQ(points.size(), 12u);
    for (const auto &p : points) {
        bool cdna = p.cell.starts_with("cdna/");
        EXPECT_TRUE(cdna || p.cell.starts_with("xen/")) << p.cell;
        bool paged = cdna && p.config.numGuests >= 64;
        EXPECT_EQ(p.config.effectiveLabel().ends_with("/oversub"), paged)
            << p.cell;
    }
}
