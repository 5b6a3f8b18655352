/**
 * @file
 * Failure-domain recovery: driver-domain crash/restart with frontend
 * reconnection, NIC firmware reboot with context reconciliation, and
 * the per-guest availability accounting built on top of them.
 *
 * The paper's reliability argument (section 3.5) is that CDNA removes
 * the driver domain from the data path: a dom0 crash that stalls every
 * Xen guest until netback restarts and the frontends reconnect leaves
 * CDNA guests entirely unaffected, and a NIC firmware reboot is
 * survived by reconciling per-context state against the
 * hypervisor-validated view.  These tests pin both halves of that
 * argument, plus the safety machinery underneath: grant revocation
 * with in-flight-DMA quarantine, use-after-revoke rejection, and
 * transport-timer teardown on guest kills.
 */

#include <gtest/gtest.h>

#include <functional>

#include "core/availability.hh"
#include "core/cli.hh"
#include "core/system.hh"
#include "mem/grant_table.hh"
#include "sim/sweep_presets.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

constexpr double kKillMs = 150.0;

SystemConfig
xenCrash(TransportKind t = kOpenLoop)
{
    return SystemConfig::xenIntel(2).transport(t).withFaults(
        FaultPlan{}.killingDriverDomain(kKillMs));
}

Report
runReport(SystemConfig cfg)
{
    System sys(std::move(cfg));
    return sys.run(sim::milliseconds(100), sim::milliseconds(300));
}

} // namespace

// ------------------------------------------- driver-domain crash ----

TEST(Recovery, XenDomKillStallsEveryGuestThenReconnects)
{
    Report r = runReport(xenCrash());
    EXPECT_EQ(r.driverDomainKills, 1u);
    // Every guest reconnected on every NIC after the restart.
    EXPECT_GE(r.feReconnects, 2u);
    ASSERT_EQ(r.perGuestDowntimeUs.size(), 2u);
    for (double d : r.perGuestDowntimeUs) {
        // The outage spans at least the reboot cost and at most a
        // couple of reconnect backoff rounds on top.
        EXPECT_GT(d, 10000.0);
        EXPECT_LT(d, 40000.0);
    }
    for (double t : r.perGuestTtfpUs)
        EXPECT_GT(t, 0.0);
    EXPECT_GT(r.outagePacketsLost, 0u);
    // Traffic resumed: the run still moves the bulk of a fault-free
    // run's data.
    EXPECT_GT(r.mbps, 500.0);
}

TEST(Recovery, XenDomKillQuarantineBalancedNoViolations)
{
    for (TransportKind t : {kOpenLoop, kTcp}) {
        Report r = runReport(xenCrash(t));
        EXPECT_GT(r.grantsRevoked, 0u);
        EXPECT_GT(r.pagesQuarantined, 0u);
        // Every quarantined page was released by the drain -- nothing
        // leaked, nothing released twice.
        EXPECT_EQ(r.pagesQuarantined, r.quarantineReleased);
        EXPECT_EQ(r.dmaViolations, 0u);
    }
}

TEST(Recovery, CdnaGuestsUnaffectedByDriverDomainKill)
{
    SystemConfig base = SystemConfig::cdna(2).transport(kTcp);
    Report rb = runReport(base);

    SystemConfig cfg = SystemConfig::cdna(2).transport(kTcp).withFaults(
        FaultPlan{}.killingDriverDomain(kKillMs));
    Report rk = runReport(cfg);

    EXPECT_EQ(rk.driverDomainKills, 1u);
    ASSERT_EQ(rk.perGuestDowntimeUs.size(), 2u);
    // The paper's claim, verbatim: guest datapaths never touch dom0,
    // so the kill causes zero downtime and costs no throughput.
    for (double d : rk.perGuestDowntimeUs)
        EXPECT_EQ(d, 0.0);
    EXPECT_EQ(rk.outagePacketsLost, 0u);
    ASSERT_EQ(rk.perGuestMbps.size(), rb.perGuestMbps.size());
    for (std::size_t g = 0; g < rk.perGuestMbps.size(); ++g)
        EXPECT_GE(rk.perGuestMbps[g], 0.95 * rb.perGuestMbps[g]);
}

// ------------------------------------------- firmware reboot --------

TEST(Recovery, CdnaZeroDowntimeUnderFirmwareReboot)
{
    // Default CDNA topology: two NICs per guest.  Rebooting NIC 0's
    // firmware leaves every guest a surviving path, so no guest's
    // progress gap ever exceeds the availability grace period.
    SystemConfig cfg = SystemConfig::cdna(2).withFaults(
        FaultPlan{}.rebootingFirmware(0, kKillMs));
    System sys(cfg);
    Report r = sys.run(sim::milliseconds(100), sim::milliseconds(300));

    EXPECT_EQ(r.firmwareReboots, 1u);
    ASSERT_EQ(r.perGuestDowntimeUs.size(), 2u);
    for (double d : r.perGuestDowntimeUs)
        EXPECT_EQ(d, 0.0);
    // Context reconciliation restored the hypervisor-validated ring
    // state: no sequence-number faults, no protection faults.
    EXPECT_EQ(r.protectionFaults, 0u);
    EXPECT_EQ(r.dmaViolations, 0u);
    EXPECT_EQ(sys.cdnaNic(0)->seqnoFaults(), 0u);
    // The rebooted NIC is back in service, not just tolerated.
    EXPECT_GT(r.mbps, 500.0);
}

TEST(Recovery, FirmwareRebootResumesTrafficOnRebootedNic)
{
    SystemConfig cfg = SystemConfig::cdna(1).withFaults(
        FaultPlan{}.rebootingFirmware(0, 50.0));
    cfg.numNics = 1;
    System sys(cfg);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(100));
    std::uint64_t mid = sys.peer(0).payloadReceived();
    ASSERT_GT(mid, 0u);
    sys.ctx().events().runUntil(sim::milliseconds(150));
    // The only NIC rebooted at 50 ms; traffic kept flowing afterwards.
    EXPECT_GT(sys.peer(0).payloadReceived(), mid);
    EXPECT_EQ(sys.cdnaNic(0)->seqnoFaults(), 0u);
    EXPECT_EQ(sys.mem().violationCount(), 0u);
}

// ------------------------------------------- post-recovery TCP ------

TEST(Recovery, PostRecoveryTcpGoodputMatchesFaultFree)
{
    // The frontends reconnect ~20 ms after the 150 ms kill, but Reno
    // then rebuilds its congestion window additively, so full rate
    // returns only a few hundred ms later.  Measure a late window that
    // captures the recovered steady state, not the climb back.
    auto windowed = [](SystemConfig cfg) {
        System sys(std::move(cfg));
        sys.start();
        auto &ev = sys.ctx().events();
        ev.runUntil(sim::milliseconds(700));
        std::uint64_t before = 0;
        for (std::uint32_t i = 0; i < sys.nicCount(); ++i)
            before += sys.peer(i).payloadReceived();
        ev.runUntil(sim::milliseconds(900));
        std::uint64_t after = 0;
        for (std::uint32_t i = 0; i < sys.nicCount(); ++i)
            after += sys.peer(i).payloadReceived();
        return after - before;
    };

    std::uint64_t clean =
        windowed(SystemConfig::xenIntel(1).transport(kTcp));
    std::uint64_t recovered =
        windowed(SystemConfig::xenIntel(1).transport(kTcp).withFaults(
            FaultPlan{}.killingDriverDomain(kKillMs)));
    ASSERT_GT(clean, 0u);
    double ratio = static_cast<double>(recovered) /
                   static_cast<double>(clean);
    EXPECT_GE(ratio, 0.95) << "post-recovery goodput " << recovered
                           << " vs fault-free " << clean;
    EXPECT_LE(ratio, 1.05);
}

// ------------------------------------------- guest kill teardown ----

TEST(Recovery, KillGuestCancelsTransportTimers)
{
    SystemConfig cfg = SystemConfig::cdna(2).transport(kTcp).withFaults(
        FaultPlan{}.killingGuest(1, 50.0));
    cfg.numNics = 1;
    System sys(cfg);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(49));
    ASSERT_GT(sys.stack(1, 0).tcp()->armedTimers(), 0u);

    sys.ctx().events().runUntil(sim::milliseconds(100));
    // The dead guest's RTO/delayed-ACK timers were all cancelled: no
    // scheduled event can fire into the dead domain.
    EXPECT_EQ(sys.stack(1, 0).tcp()->armedTimers(), 0u);

    // The survivor keeps running.
    std::uint64_t mid = sys.peer(0).payloadReceived();
    sys.ctx().events().runUntil(sim::milliseconds(150));
    EXPECT_GT(sys.peer(0).payloadReceived(), mid);
    EXPECT_EQ(sys.mem().violationCount(), 0u);
}

TEST(Recovery, KillReceivingGuestCancelsTransportTimers)
{
    // A receiving guest's endpoint holds receiver flows only.  Kill
    // guest 0 while one of them has a delayed ACK armed: a run whose
    // kill comes later finds such an instant (runs are identical up to
    // their kill), then a second run kills there.  Guest 0, because
    // guest 1's flow barely moves while guest 0 receives.
    auto config = [](double kill_ms) {
        SystemConfig cfg = SystemConfig::cdna(2).receive().transport(kTcp);
        cfg.withFaults(FaultPlan{}.killingGuest(0, kill_ms));
        cfg.numNics = 1;
        return cfg;
    };
    sim::Time armed = 0;
    sim::Time disarmed = 0;
    {
        System probe(config(1000.0));
        probe.start();
        sim::EventQueue &events = probe.ctx().events();
        net::transport::TcpEndpoint &ep = *probe.stack(0, 0).tcp();
        const sim::Time horizon = sim::milliseconds(100);
        while (ep.armedTimers() == 0 && events.now() < horizon)
            events.runOne();
        armed = events.now();
        while (ep.armedTimers() > 0 && events.now() < horizon)
            events.runOne();
        disarmed = events.now();
    }
    ASSERT_GT(disarmed - armed, sim::microseconds(4));
    const sim::Time kill = armed + (disarmed - armed) / 2;

    System sys(config(sim::toMicroseconds(kill) / 1000.0));
    sys.start();
    net::transport::TcpEndpoint &victim = *sys.stack(0, 0).tcp();
    sys.ctx().events().runUntil(kill - sim::microseconds(1));
    ASSERT_GT(victim.armedTimers(), 0u);
    sys.ctx().events().runUntil(kill + sim::microseconds(1));
    EXPECT_EQ(victim.armedTimers(), 0u);

    // The survivor keeps receiving.
    std::uint64_t mid = sys.stack(1, 0).rxBytes();
    sys.ctx().events().runUntil(kill + sim::milliseconds(50));
    EXPECT_GT(sys.stack(1, 0).rxBytes(), mid);
    EXPECT_EQ(sys.mem().violationCount(), 0u);
}

// ------------------------------------------- grant-table safety -----

namespace {

struct GrantRevokeFixture : ::testing::Test
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 256};
    mem::GrantTable grants{ctx, "grant-table", mem};
    static constexpr mem::DomainId kGuest = 1, kBackend = 2;
};

} // namespace

TEST_F(GrantRevokeFixture, UseAfterRevokeIsRejected)
{
    mem::PageNum page = mem.allocOne(kGuest);
    mem::GrantRef ref = grants.grantAccess(kGuest, kBackend, page);
    ASSERT_NE(ref, mem::kInvalidGrant);
    mem::PageNum mapped = 0;
    ASSERT_TRUE(grants.mapGrant(ref, kBackend, &mapped));

    auto rs = grants.revokeMappingsOf(kBackend);
    EXPECT_EQ(rs.revoked, 1u);
    EXPECT_EQ(rs.quarantined, 1u);

    // The restarted backend replays the stale reference: rejected and
    // counted, even though the domain id matches.
    EXPECT_FALSE(grants.mapGrant(ref, kBackend, &mapped));
    EXPECT_EQ(grants.useAfterRevoke(), 1u);
    // The granter can still reclaim its page bookkeeping.
    EXPECT_TRUE(grants.endGrant(ref, kGuest));
}

TEST_F(GrantRevokeFixture, UnmappedGrantsSurviveBackendCrash)
{
    // A grant the dead backend never mapped still belongs to the guest
    // and must stay replayable after the restart (the request lives on
    // in the shared ring).
    mem::PageNum page = mem.allocOne(kGuest);
    mem::GrantRef ref = grants.grantAccess(kGuest, kBackend, page);
    auto rs = grants.revokeMappingsOf(kBackend);
    EXPECT_EQ(rs.revoked, 0u);
    mem::PageNum mapped = 0;
    EXPECT_TRUE(grants.mapGrant(ref, kBackend, &mapped));
    EXPECT_EQ(mapped, page);
}

TEST_F(GrantRevokeFixture, QuarantinedPageUnreusableUntilDrain)
{
    mem::PageNum page = mem.allocOne(kGuest);
    mem::GrantRef ref = grants.grantAccess(kGuest, kBackend, page);
    mem::PageNum mapped = 0;
    ASSERT_TRUE(grants.mapGrant(ref, kBackend, &mapped));
    grants.revokeMappingsOf(kBackend);
    EXPECT_EQ(grants.quarantinedPages(), 1u);

    // The pin survives revocation: freeing the page defers, and it
    // cannot come back from the allocator while DMA may be in flight.
    std::uint64_t free_before = mem.freePages();
    EXPECT_FALSE(mem.release(page));
    EXPECT_TRUE(mem.releasePending(page));
    EXPECT_EQ(mem.freePages(), free_before);

    EXPECT_EQ(grants.drainQuarantine(), 1u);
    EXPECT_EQ(grants.quarantinedPages(), 0u);
    EXPECT_EQ(mem.freePages(), free_before + 1);
    EXPECT_EQ(grants.quarantineAdmissions(), grants.quarantineReleases());
}

// ------------------------------------------- availability tracker ---

namespace {

struct AvailabilityUnit : ::testing::Test
{
    sim::SimContext ctx;
    AvailabilityTracker avail{ctx, "availability", 2};

    void
    at(sim::Time t, std::function<void()> fn)
    {
        ctx.events().schedule(t, std::move(fn));
    }

    void run(sim::Time until) { ctx.events().runUntil(until); }
};

} // namespace

TEST_F(AvailabilityUnit, ProgressWithinGraceScoresZeroDowntime)
{
    // A CDNA guest whose traffic keeps flowing through a dom0 crash:
    // the progress gap stays below the grace window, so the fault
    // never reads as an outage.
    at(sim::milliseconds(10), [&] { avail.noteOutageStart(0); });
    at(sim::milliseconds(10) + AvailabilityTracker::kGrace / 2,
       [&] { avail.noteProgress(0); });
    run(sim::milliseconds(20));
    EXPECT_EQ(avail.downtimeUs(0), 0.0);
    EXPECT_FALSE(avail.anyDowntime());
}

TEST_F(AvailabilityUnit, GapBeyondGraceCountsFullOutage)
{
    at(sim::milliseconds(10), [&] { avail.noteOutageStart(0); });
    at(sim::milliseconds(15), [&] { avail.noteProgress(0); });
    run(sim::milliseconds(20));
    EXPECT_DOUBLE_EQ(avail.downtimeUs(0), 5000.0);
    // Guest 1 never saw the fault.
    EXPECT_EQ(avail.downtimeUs(1), 0.0);
}

TEST_F(AvailabilityUnit, TtfpMeasuredFromRecoveryCompletion)
{
    at(sim::milliseconds(10), [&] { avail.noteOutageStart(0); });
    at(sim::milliseconds(13), [&] { avail.noteRecovery(0); });
    at(sim::milliseconds(15), [&] { avail.noteProgress(0); });
    run(sim::milliseconds(20));
    EXPECT_DOUBLE_EQ(avail.downtimeUs(0), 5000.0);
    EXPECT_DOUBLE_EQ(avail.ttfpUs(0), 2000.0);
}

TEST_F(AvailabilityUnit, OverlappingFaultsMergeIntoOneOutage)
{
    // A firmware reboot during a dom0 outage must not double-count.
    at(sim::milliseconds(10), [&] { avail.noteOutageStart(0); });
    at(sim::milliseconds(12), [&] { avail.noteOutageStart(0); });
    at(sim::milliseconds(16), [&] { avail.noteProgress(0); });
    run(sim::milliseconds(20));
    EXPECT_DOUBLE_EQ(avail.downtimeUs(0), 6000.0);
}

TEST_F(AvailabilityUnit, OpenOutageCountsElapsedSpan)
{
    at(sim::milliseconds(10), [&] { avail.noteOutageStart(0); });
    run(sim::milliseconds(30));
    // No progress yet: the open outage reads as its elapsed span, so a
    // report cut mid-outage does not claim perfect availability.
    EXPECT_DOUBLE_EQ(avail.downtimeUs(0), 20000.0);
    EXPECT_TRUE(avail.anyDowntime());
}

// ------------------------------------------- CLI / fault plan -------

namespace {

std::optional<CliOptions>
parse(std::vector<std::string> args, std::string *error = nullptr)
{
    std::string ignored;
    return parseCli(args, error ? error : &ignored);
}

} // namespace

TEST(RecoveryCli, KillDriverDomainDirective)
{
    auto opt = parse({"--mode", "xen", "--kill-driver-domain", "60"});
    ASSERT_TRUE(opt.has_value());
    const FaultPlan &p = opt->config.faults;
    ASSERT_EQ(p.driverDomainKills.size(), 1u);
    EXPECT_DOUBLE_EQ(p.driverDomainKills[0].atMs, 60.0);
    EXPECT_FALSE(p.empty());

    std::string err;
    EXPECT_FALSE(parse({"--kill-driver-domain", "soon"}, &err));
    EXPECT_NE(err.find("--kill-driver-domain"), std::string::npos);
}

TEST(RecoveryCli, RebootFirmwareDirective)
{
    auto opt = parse({"--reboot-firmware", "1@75"});
    ASSERT_TRUE(opt.has_value());
    const FaultPlan &p = opt->config.faults;
    ASSERT_EQ(p.firmwareReboots.size(), 1u);
    EXPECT_EQ(p.firmwareReboots[0].nic, 1u);
    EXPECT_DOUBLE_EQ(p.firmwareReboots[0].atMs, 75.0);

    std::string err;
    EXPECT_FALSE(parse({"--reboot-firmware", "75"}, &err));
    EXPECT_NE(err.find("--reboot-firmware"), std::string::npos);
}

TEST(RecoveryCli, PlanTextSupportsOutageDirectives)
{
    std::string err;
    auto plan = FaultPlan::parse(
        "kill-driver-domain 60\nreboot-firmware 0@80\n", &err);
    ASSERT_TRUE(plan.has_value()) << err;
    ASSERT_EQ(plan->driverDomainKills.size(), 1u);
    EXPECT_DOUBLE_EQ(plan->driverDomainKills[0].atMs, 60.0);
    ASSERT_EQ(plan->firmwareReboots.size(), 1u);
    EXPECT_EQ(plan->firmwareReboots[0].nic, 0u);
    EXPECT_DOUBLE_EQ(plan->firmwareReboots[0].atMs, 80.0);
}

// ------------------------------------------- availability sweep -----

TEST(Availability, SweepDeterministicAcrossJobs)
{
    // The full preset with shortened windows (the fault still lands
    // inside the measurement window).
    auto spec = [] {
        return sim::presets::availability()
            .warmup(sim::milliseconds(100))
            .measure(sim::milliseconds(120));
    };
    sim::SweepOptions j1;
    j1.jobs = 1;
    sim::SweepOptions j8;
    j8.jobs = 8;
    auto a = sim::runSweep(spec(), j1);
    auto b = sim::runSweep(spec(), j8);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i)
        EXPECT_EQ(a.runs[i].json, b.runs[i].json) << a.runs[i].point.cell;
}
