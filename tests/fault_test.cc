/**
 * @file
 * Fault-injection subsystem tests: plan parsing, determinism, the
 * fault matrix (no fault sequence may produce a DMA protection
 * violation or a hung simulation), the recovery paths (driver
 * watchdog resync after a firmware reset, guest kill mid-transfer), and
 * the chaos preset, which runs six kinds of fault at once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "core/cli.hh"
#include "core/fault_plan.hh"
#include "core/system.hh"
#include "sim/sweep.hh"
#include "sim/sweep_presets.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

constexpr sim::Time kWarmup = sim::milliseconds(50);
constexpr sim::Time kMeasure = sim::milliseconds(150);

Report
runOnce(SystemConfig cfg, sim::Time warmup = kWarmup,
        sim::Time measure = kMeasure)
{
    System sys(std::move(cfg));
    return sys.run(warmup, measure);
}

} // namespace

// ------------------------------------------------------ plan parsing ----

TEST(FaultPlan, ParsesEveryDirective)
{
    std::string err;
    auto plan = FaultPlan::parse("# a comment\n"
                                 "drop-rate 0.01\n"
                                 "corrupt-rate 0.002\n"
                                 "\n"
                                 "dup-rate 0.001\n"
                                 "dma-delay-rate 0.05\n"
                                 "dma-delay-us 30\n"
                                 "firmware-stall 0@20:5\n"
                                 "firmware-stall 1@30:2 no-reset\n"
                                 "kill-guest 1@40\n",
                                 &err);
    ASSERT_TRUE(plan.has_value()) << err;
    EXPECT_DOUBLE_EQ(plan->rates.frameDrop, 0.01);
    EXPECT_DOUBLE_EQ(plan->rates.frameCorrupt, 0.002);
    EXPECT_DOUBLE_EQ(plan->rates.frameDuplicate, 0.001);
    EXPECT_DOUBLE_EQ(plan->rates.dmaDelayChance, 0.05);
    EXPECT_EQ(plan->rates.dmaDelay, sim::microseconds(30));
    ASSERT_EQ(plan->firmwareStalls.size(), 2u);
    EXPECT_EQ(plan->firmwareStalls[0].nic, 0u);
    EXPECT_DOUBLE_EQ(plan->firmwareStalls[0].atMs, 20.0);
    EXPECT_DOUBLE_EQ(plan->firmwareStalls[0].durMs, 5.0);
    EXPECT_TRUE(plan->firmwareStalls[0].watchdogReset);
    EXPECT_FALSE(plan->firmwareStalls[1].watchdogReset);
    ASSERT_EQ(plan->guestKills.size(), 1u);
    EXPECT_EQ(plan->guestKills[0].guest, 1u);
    EXPECT_DOUBLE_EQ(plan->guestKills[0].atMs, 40.0);
    EXPECT_FALSE(plan->empty());
}

TEST(FaultPlan, ParseErrorsNameTheLine)
{
    std::string err;
    EXPECT_FALSE(FaultPlan::parse("drop-rate 0.01\nbogus 1\n", &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_FALSE(FaultPlan::parse("drop-rate nine\n", &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
    EXPECT_FALSE(FaultPlan::parse("drop-rate 1.5\n", &err));
    EXPECT_FALSE(FaultPlan::parse("firmware-stall zero\n", &err));
    EXPECT_FALSE(FaultPlan::parse("kill-guest 1\n", &err));
    EXPECT_FALSE(FaultPlan::parse("kill-guest -1@150\n", &err));
    EXPECT_FALSE(FaultPlan::parse("firmware-stall 4294967296@150:5\n", &err));
    EXPECT_FALSE(FaultPlan::parse("dma-delay 0.1 inf\n", &err));
    EXPECT_FALSE(FaultPlan::parse("dma-delay-us inf\n", &err));
    EXPECT_FALSE(FaultPlan::parse("kill-driver-domain nan\n", &err));
    // A delay needs a magnitude, and the two-argument spelling is gone.
    EXPECT_FALSE(FaultPlan::parse("drop-rate 0\ndma-delay-us 0\n", &err));
    EXPECT_NE(err.find("line 2"), std::string::npos) << err;
    EXPECT_FALSE(FaultPlan::parse("dma-delay 0.1 25\n", &err));
    EXPECT_NE(err.find("line 1"), std::string::npos) << err;
}

TEST(FaultPlan, SpecParsers)
{
    FaultPlan p;
    ASSERT_TRUE(p.apply("firmware-stall", "2@15.5:3"));
    ASSERT_EQ(p.firmwareStalls.size(), 1u);
    EXPECT_EQ(p.firmwareStalls[0].nic, 2u);
    EXPECT_DOUBLE_EQ(p.firmwareStalls[0].atMs, 15.5);
    EXPECT_DOUBLE_EQ(p.firmwareStalls[0].durMs, 3.0);
    EXPECT_FALSE(p.apply("firmware-stall", "2@15.5"));
    EXPECT_FALSE(p.apply("firmware-stall", "x@1:2"));

    ASSERT_TRUE(p.apply("kill-guest", "3@40"));
    ASSERT_EQ(p.guestKills.size(), 1u);
    EXPECT_EQ(p.guestKills[0].guest, 3u);
    EXPECT_DOUBLE_EQ(p.guestKills[0].atMs, 40.0);
    EXPECT_FALSE(p.apply("kill-guest", "3"));
    EXPECT_FALSE(p.apply("kill-guest", "@40"));
    // A rejected directive leaves the plan as it was.
    EXPECT_EQ(p.firmwareStalls.size(), 1u);
    EXPECT_EQ(p.guestKills.size(), 1u);
}

TEST(FaultPlan, FlagsAndFileShareOneVocabulary)
{
    // One valid value per directive; a directive without a sample here
    // fails the test, so a new row cannot skip the check.
    const std::vector<std::pair<std::string, std::string>> samples = {
        {"drop-rate", "0.01"},
        {"corrupt-rate", "0.002"},
        {"dup-rate", "0.001"},
        {"dma-delay-rate", "0.05"},
        {"dma-delay-us", "30"},
        {"firmware-stall", "1@30:2 no-reset"},
        {"kill-guest", "1@40"},
        {"kill-driver-domain", "60"},
        {"reboot-firmware", "0@60"},
    };
    for (const FaultDirective &d : faultDirectives()) {
        auto it = std::find_if(samples.begin(), samples.end(), [&](auto &s) {
            return s.first == d.name;
        });
        ASSERT_NE(it, samples.end()) << "no sample for " << d.name;
        std::string err;
        auto flag = parseCli({std::string("--") + d.name, it->second}, &err);
        ASSERT_TRUE(flag.has_value()) << d.name << ": " << err;
        auto file = FaultPlan::parse(it->first + " " + it->second + "\n",
                                     &err);
        ASSERT_TRUE(file.has_value()) << d.name << ": " << err;
        EXPECT_EQ(flag->config.faults, *file) << d.name;
        EXPECT_NE(*file, FaultPlan{}) << d.name;
    }
}

TEST(FaultPlan, EmptyMeansInert)
{
    EXPECT_TRUE(FaultPlan{}.empty());
    EXPECT_FALSE(FaultPlan{}.dropping(0.1).empty());
    EXPECT_FALSE(FaultPlan{}.stallingFirmware(0, 1, 1).empty());
    EXPECT_FALSE(FaultPlan{}.killingGuest(0, 1).empty());
    EXPECT_TRUE(FaultPlan{}.delayingDma(0.5, 0.0).empty());
    // The delay defaults to 25 us, so a probability alone arms it.
    auto rateOnly = FaultPlan::parse("dma-delay-rate 0.1\n", nullptr);
    ASSERT_TRUE(rateOnly.has_value());
    EXPECT_FALSE(rateOnly->empty());
}

// ------------------------------------------------------- determinism ----

TEST(FaultDeterminism, ZeroPlanMatchesNoPlanBitForBit)
{
    auto base = SystemConfig::cdna(2).withSeed(7);
    Report without = runOnce(base);
    Report with = runOnce(SystemConfig(base).withFaults(FaultPlan{}));
    EXPECT_EQ(reportToJson(without), reportToJson(with));
}

TEST(FaultDeterminism, NoInjectorWithoutAPlan)
{
    System sys(SystemConfig::cdna(1));
    EXPECT_EQ(sys.faultInjector(), nullptr);
    System chaotic(
        SystemConfig::cdna(1).withFaults(FaultPlan{}.dropping(0.01)));
    EXPECT_NE(chaotic.faultInjector(), nullptr);
}

// The fault matrix: every plan on every architecture, both directions,
// run twice.  Identical seed + plan must give identical stats; no run
// may record a DMA protection violation; every run must terminate (a
// hung simulation fails the ctest timeout).  One instance per
// architecture, so ctest runs them in parallel.
namespace {

struct ArchCase
{
    const char *name;
    SystemConfig (*config)();
};

void
PrintTo(const ArchCase &c, std::ostream *os)
{
    *os << c.name;
}

} // namespace

class FaultMatrix : public ::testing::TestWithParam<ArchCase>
{
};

TEST_P(FaultMatrix, DeterministicAndNoProtectionViolations)
{
    struct NamedPlan
    {
        const char *name;
        FaultPlan plan;
    };
    const std::vector<NamedPlan> plans = {
        {"drop", FaultPlan{}.dropping(0.02)},
        {"corrupt+dup", FaultPlan{}.corrupting(0.01).duplicating(0.01)},
        {"dma-delay", FaultPlan{}.delayingDma(0.1, 25.0)},
        {"fw-stall", FaultPlan{}.stallingFirmware(0, 60.0, 4.0)},
        {"kill", FaultPlan{}.killingGuest(1, 100.0)},
        {"everything", FaultPlan{}
                           .dropping(0.01)
                           .corrupting(0.005)
                           .duplicating(0.005)
                           .delayingDma(0.05, 25.0)
                           .stallingFirmware(0, 60.0, 4.0)
                           .killingGuest(1, 100.0)},
    };

    for (bool transmit : {true, false}) {
        for (const auto &[name, plan] : plans) {
            auto cfg = GetParam()
                           .config()
                           .transmit(transmit)
                           .withSeed(11)
                           .withFaults(plan);
            Report a = runOnce(cfg);
            Report b = runOnce(cfg);
            EXPECT_EQ(reportToJson(a), reportToJson(b))
                << name << (transmit ? "/tx" : "/rx");
            EXPECT_EQ(a.dmaViolations, 0u)
                << name << (transmit ? "/tx" : "/rx");
            EXPECT_GT(a.mbps, 0.0) << name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllArchs, FaultMatrix,
    ::testing::Values(
        ArchCase{"native", [] { return SystemConfig::native(); }},
        ArchCase{"xen-intel", [] { return SystemConfig::xenIntel(2); }},
        ArchCase{"xen-rice", [] { return SystemConfig::xenRice(2); }},
        ArchCase{"cdna", [] { return SystemConfig::cdna(2); }},
        ArchCase{"swpt", [] { return SystemConfig::swPassthrough(2); }}));

// ---------------------------------------------------- fault behavior ----

TEST(FaultBehavior, DropsDegradeButDontZeroGoodput)
{
    auto base = SystemConfig::cdna(1).withSeed(3);
    Report clean = runOnce(base);
    Report lossy =
        runOnce(SystemConfig(base).withFaults(FaultPlan{}.dropping(0.05)));
    EXPECT_GT(lossy.faultFramesDropped, 0u);
    EXPECT_LT(lossy.mbps, clean.mbps);
    EXPECT_GT(lossy.mbps, 0.2 * clean.mbps);
}

TEST(FaultBehavior, DuplicatesNeverInflateGoodput)
{
    auto base = SystemConfig::cdna(1).withSeed(3);
    Report clean = runOnce(base);
    Report dupped = runOnce(
        SystemConfig(base).withFaults(FaultPlan{}.duplicating(0.05)));
    EXPECT_GT(dupped.faultFramesDuplicated, 0u);
    EXPECT_LE(dupped.mbps, clean.mbps * 1.01);
}

TEST(FaultBehavior, DmaDelaysAreCounted)
{
    Report r = runOnce(SystemConfig::cdna(1).withFaults(
        FaultPlan{}.delayingDma(0.2, 25.0)));
    EXPECT_GT(r.faultDmaDelays, 0u);
    EXPECT_EQ(r.dmaViolations, 0u);
    EXPECT_GT(r.mbps, 0.0);
}

TEST(FaultBehavior, ReportSurfacesFaultCounters)
{
    Report r = runOnce(SystemConfig::cdna(1).withFaults(
        FaultPlan{}.dropping(0.05)));
    EXPECT_NE(r.faultSummary().find("frames_dropped="), std::string::npos);
    Report clean = runOnce(SystemConfig::cdna(1));
    EXPECT_EQ(clean.faultSummary(), "");
}

// ---------------------------------------------------- recovery paths ----

TEST(FaultRecovery, WatchdogResyncsAfterFirmwareReset)
{
    // Stall NIC 0's firmware for 10 ms mid-run and reboot it, losing
    // every queued doorbell.  The driver watchdog must time out,
    // re-ring the producer mailboxes, and traffic must resume.  The
    // stall must comfortably exceed the NIC's on-board packet buffer
    // drain time (~3 ms of frames already handed to the wire keep
    // completing descriptors after the firmware wedges) plus the 1 ms
    // watchdog period, or the driver never sees a no-progress window.
    auto cfg = SystemConfig::cdna(1).withNics(1).withFaults(
        FaultPlan{}.stallingFirmware(0, 60.0, 10.0));
    Report r = runOnce(cfg);
    Report clean = runOnce(SystemConfig::cdna(1).withNics(1));
    EXPECT_EQ(r.firmwareStalls, 1u);
    EXPECT_GE(r.mailboxTimeouts, 1u);
    EXPECT_GE(r.ringResyncs, 1u);
    EXPECT_EQ(r.dmaViolations, 0u);
    // Recovery within the watchdog budget: most of the goodput remains.
    EXPECT_GT(r.mbps, 0.5 * clean.mbps);
}

TEST(FaultRecovery, StallWithoutResetRecoversByItself)
{
    auto cfg = SystemConfig::cdna(1).withNics(1).withFaults(
        FaultPlan{}.stallingFirmware(0, 60.0, 2.0, /*watchdog_reset=*/false));
    Report r = runOnce(cfg);
    EXPECT_EQ(r.firmwareStalls, 1u);
    EXPECT_EQ(r.dmaViolations, 0u);
    EXPECT_GT(r.mbps, 0.0);
}

TEST(FaultRecovery, ScheduledKillRevokesEveryContext)
{
    auto cfg = SystemConfig::cdna(2).withFaults(
        FaultPlan{}.killingGuest(0, 60.0));
    System sys(cfg);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(100));
    EXPECT_TRUE(sys.cdnaDriver(0, 0)->detached());
    ASSERT_NE(sys.faultInjector(), nullptr);
    EXPECT_EQ(sys.faultInjector()->count(sim::FaultEvent::kGuestKill), 1u);
    EXPECT_EQ(sys.mem().violationCount(), 0u);
}

TEST(FaultRecovery, KillOfUnknownGuestIsIgnored)
{
    auto cfg = SystemConfig::cdna(1).withFaults(
        FaultPlan{}.killingGuest(9, 60.0));
    Report r = runOnce(cfg);
    EXPECT_EQ(r.guestKills, 0u);
    EXPECT_GT(r.mbps, 0.0);
}

// ------------------------------------------------------ chaos preset ----

TEST(ChaosPreset, FiresEveryFaultKindWithoutDmaViolations)
{
    sim::SweepOptions opt;
    opt.jobs = 2;
    sim::SweepResult result = sim::runSweep(sim::presets::chaos(), opt);
    ASSERT_EQ(result.runs.size(), 2u);
    for (const sim::RunResult &run : result.runs)
        EXPECT_EQ(run.report.dmaViolations, 0u) << run.point.cell;

    ASSERT_EQ(result.runs[1].point.cell, "cdna/chaos");
    const Report &r = result.runs[1].report;
    EXPECT_GT(r.faultFramesDropped, 0u);
    EXPECT_GT(r.faultFramesCorrupted, 0u);
    EXPECT_GT(r.faultFramesDuplicated, 0u);
    EXPECT_GT(r.faultDmaDelays, 0u);
    EXPECT_GT(r.mailboxTimeouts, 0u);
    EXPECT_EQ(r.firmwareStalls, 1u);
    EXPECT_EQ(r.guestKills, 1u);
}

TEST(ChaosPreset, ChaosCellIsOneCdnaSimCommandLine)
{
    // The same plan spelled as cdna_sim fault flags runs the same report.
    std::string err;
    auto opt = parseCli(
        {"--mode", "cdna", "--guests", "4", "--seconds", "0.4",
         "--drop-rate", "0.01", "--corrupt-rate", "0.002", "--dup-rate",
         "0.005", "--dma-delay-rate", "0.05", "--dma-delay-us", "25",
         "--firmware-stall", "0@120:5", "--kill-guest", "3@250"},
        &err);
    ASSERT_TRUE(opt.has_value()) << err;
    sim::RunPoint cli;
    cli.config = opt->config;
    cli.warmup = opt->warmup;
    cli.measure = opt->measure;

    sim::ExperimentSpec spec = sim::presets::chaos();
    std::vector<sim::RunPoint> points = spec.expand();
    ASSERT_EQ(points.size(), 2u);
    ASSERT_EQ(points[1].cell, "cdna/chaos");
    EXPECT_EQ(sim::runPoint(spec, points[1]).json,
              reportToJson(sim::runHost(cli)));
}
