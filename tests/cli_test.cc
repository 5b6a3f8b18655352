/**
 * @file
 * Unit tests for the command-line front end: argument parsing, config
 * mapping, the option table, fault-injection flags, error handling,
 * observed runs through sim::runHost, and JSON report rendering.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "core/cli.hh"
#include "core/fault_plan.hh"
#include "sim/sweep.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

std::optional<CliOptions>
parse(std::initializer_list<const char *> args, std::string *err = nullptr)
{
    std::vector<std::string> v(args.begin(), args.end());
    std::string local;
    return parseCli(v, err ? err : &local);
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

bool
fileExists(const std::string &path)
{
    std::ifstream f(path);
    return f.good();
}

} // namespace

TEST(Cli, DefaultsAreCdnaTransmit)
{
    auto opt = parse({});
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->config.arch, Arch::kCdna);
    EXPECT_TRUE(opt->config.transmitDir);
    EXPECT_EQ(opt->config.numGuests, 1u);
    EXPECT_EQ(opt->config.numNics, 2u);
    EXPECT_TRUE(opt->config.dmaProtection);
    EXPECT_FALSE(opt->json);
    EXPECT_FALSE(opt->help);
}

TEST(Cli, ModeSelection)
{
    EXPECT_EQ(parse({"--mode", "native"})->config.arch, Arch::kNative);
    EXPECT_EQ(parse({"--mode", "xen"})->config.arch, Arch::kXenIntel);
    EXPECT_EQ(parse({"--mode", "cdna"})->config.arch, Arch::kCdna);
    EXPECT_EQ(parse({"--mode", "swpt"})->config.arch, Arch::kSwpt);
    EXPECT_EQ(parse({"--mode", "xen", "--nic", "intel"})->config.arch,
              Arch::kXenIntel);
    EXPECT_EQ(parse({"--mode", "xen", "--nic", "rice"})->config.arch,
              Arch::kXenRice);
    std::string err;
    EXPECT_FALSE(parse({"--mode", "vmware"}, &err).has_value());
    EXPECT_NE(err.find("--mode"), std::string::npos);
    EXPECT_FALSE(
        parse({"--mode", "xen", "--nic", "bogus"}, &err).has_value());
    EXPECT_NE(err.find("--nic must be intel or rice"), std::string::npos);
    // --nic picks the NIC behind Xen's driver domain; every other
    // architecture fixes its NIC, so there the flag is a usage error.
    EXPECT_FALSE(
        parse({"--mode", "cdna", "--nic", "bogus"}, &err).has_value());
    EXPECT_NE(err.find("--nic requires --mode xen"), std::string::npos);
    err.clear();
    EXPECT_FALSE(
        parse({"--mode", "native", "--nic", "rice"}, &err).has_value());
    EXPECT_NE(err.find("--nic requires --mode xen"), std::string::npos);
}

TEST(Cli, TopologyAndWorkload)
{
    auto opt = parse({"--guests", "8", "--nics", "3", "--direction", "rx",
                      "--seed", "9"});
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->config.numGuests, 8u);
    EXPECT_EQ(opt->config.numNics, 3u);
    EXPECT_FALSE(opt->config.transmitDir);
    EXPECT_EQ(opt->config.seed, 9u);
}

TEST(Cli, TransportSelection)
{
    EXPECT_EQ(parse({})->config.transportKind,
              net::transport::TransportKind::kOpenLoop);
    auto opt = parse({"--transport", "tcp"});
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->config.transportKind, kTcp);
    EXPECT_EQ(opt->config.effectiveLabel(), "cdna/tx/tcp");
    std::string err;
    EXPECT_FALSE(parse({"--transport", "udp"}, &err).has_value());
    EXPECT_NE(err.find("--transport must be open or tcp"), std::string::npos);
}

TEST(Cli, ProtectionAndIommu)
{
    auto opt = parse({"--no-protection", "--iommu", "context"});
    ASSERT_TRUE(opt.has_value());
    EXPECT_FALSE(opt->config.dmaProtection);
    EXPECT_EQ(opt->config.iommuMode, mem::Iommu::Mode::kPerContext);
    EXPECT_EQ(parse({"--iommu", "device"})->config.iommuMode,
              mem::Iommu::Mode::kPerDevice);
    // Only CDNA reads the protection switch; elsewhere the flag would
    // change nothing, so it is a usage error.
    std::string err;
    EXPECT_FALSE(parse({"--mode", "swpt", "--no-protection"}, &err));
    EXPECT_NE(err.find("--no-protection requires --mode cdna"),
              std::string::npos);
    EXPECT_FALSE(
        parse({"--mode", "xen", "--nic", "rice", "--no-protection"}));
}

TEST(Cli, RunControl)
{
    auto opt = parse({"--warmup", "50", "--seconds", "2", "--json"});
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->warmup, sim::milliseconds(50));
    EXPECT_EQ(opt->measure, sim::seconds(2));
    EXPECT_TRUE(opt->json);
}

TEST(Cli, HelpShortCircuits)
{
    auto opt = parse({"--help"});
    ASSERT_TRUE(opt.has_value());
    EXPECT_TRUE(opt->help);
    EXPECT_FALSE(cliUsage().empty());
}

TEST(Cli, ErrorsAreReported)
{
    std::string err;
    EXPECT_FALSE(parse({"--guests"}, &err).has_value());
    EXPECT_FALSE(parse({"--guests", "zero"}, &err).has_value());
    EXPECT_FALSE(parse({"--guests", "0"}, &err).has_value());
    EXPECT_FALSE(parse({"--seconds", "-1"}, &err).has_value());
    // Counts and ids take digits only, up to UINT32_MAX: a sign or an
    // overflow never wraps to another value, and a window is finite.
    EXPECT_FALSE(parse({"--guests", "-1"}, &err).has_value());
    EXPECT_FALSE(parse({"--nics", "-1"}, &err).has_value());
    EXPECT_FALSE(parse({"--warmup", "-1"}, &err).has_value());
    EXPECT_FALSE(parse({"--guests", "4294967297"}, &err).has_value());
    EXPECT_FALSE(parse({"--seed", "4294967297"}, &err).has_value());
    EXPECT_FALSE(parse({"--seconds", "nan"}, &err).has_value());
    EXPECT_FALSE(parse({"--seconds", "inf"}, &err).has_value());
    EXPECT_TRUE(parse({"--seed", "4294967295"}, &err).has_value());
    EXPECT_FALSE(parse({"--direction", "sideways"}, &err).has_value());
    EXPECT_FALSE(parse({"--nonsense"}, &err).has_value());
    EXPECT_NE(err.find("--nonsense"), std::string::npos);
}

// ----------------------------------------------------- option table ----

TEST(Cli, OptionTableDrivesUsageText)
{
    std::string usage = cliUsage();
    ASSERT_FALSE(cliOptionTable().empty());
    for (const CliOptionSpec &s : cliOptionTable()) {
        EXPECT_NE(usage.find(s.name), std::string::npos) << s.name;
        EXPECT_NE(usage.find(s.group + ":"), std::string::npos) << s.group;
        if (s.takesValue()) {
            EXPECT_NE(usage.find(s.name + " " + s.argName),
                      std::string::npos)
                << s.name;
        }
    }
}

TEST(Cli, EveryTableOptionIsParsed)
{
    // Any option in the table must be recognized by the parser: it may
    // reject a bogus value, but never as "unknown option".
    for (const CliOptionSpec &s : cliOptionTable()) {
        std::vector<std::string> args{s.name};
        if (s.takesValue())
            args.push_back("0");
        std::string err;
        auto opt = parseCli(args, &err);
        if (!opt) {
            EXPECT_EQ(err.find("unknown option"), std::string::npos)
                << s.name << ": " << err;
        }
    }
}

// ------------------------------------------------------- fault flags ----

TEST(CliFault, FaultFlagsBuildPlan)
{
    auto opt = parse({"--drop-rate", "0.01", "--corrupt-rate=0.002",
                      "--dup-rate", "0.001", "--dma-delay-rate", "0.05",
                      "--dma-delay-us", "30", "--firmware-stall", "0@20:5",
                      "--kill-guest", "1@40"});
    ASSERT_TRUE(opt.has_value());
    const FaultPlan &p = opt->config.faults;
    EXPECT_FALSE(p.empty());
    EXPECT_DOUBLE_EQ(p.rates.frameDrop, 0.01);
    EXPECT_DOUBLE_EQ(p.rates.frameCorrupt, 0.002);
    EXPECT_DOUBLE_EQ(p.rates.frameDuplicate, 0.001);
    EXPECT_DOUBLE_EQ(p.rates.dmaDelayChance, 0.05);
    EXPECT_EQ(p.rates.dmaDelay, sim::microseconds(30));
    ASSERT_EQ(p.firmwareStalls.size(), 1u);
    EXPECT_EQ(p.firmwareStalls[0].nic, 0u);
    EXPECT_DOUBLE_EQ(p.firmwareStalls[0].atMs, 20.0);
    EXPECT_DOUBLE_EQ(p.firmwareStalls[0].durMs, 5.0);
    EXPECT_TRUE(p.firmwareStalls[0].watchdogReset);
    ASSERT_EQ(p.guestKills.size(), 1u);
    EXPECT_EQ(p.guestKills[0].guest, 1u);
    EXPECT_DOUBLE_EQ(p.guestKills[0].atMs, 40.0);
}

TEST(CliFault, DefaultPlanIsEmpty)
{
    auto opt = parse({});
    ASSERT_TRUE(opt.has_value());
    EXPECT_TRUE(opt->config.faults.empty());
}

TEST(CliFault, DmaDelayRateGetsDefaultLatency)
{
    auto opt = parse({"--dma-delay-rate", "0.1"});
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->config.faults.rates.dmaDelay, sim::microseconds(25));
}

TEST(CliFault, BadFaultFlagsRejected)
{
    std::string err;
    EXPECT_FALSE(parse({"--drop-rate", "1.5"}, &err).has_value());
    EXPECT_NE(err.find("--drop-rate"), std::string::npos);
    EXPECT_FALSE(parse({"--corrupt-rate", "-0.1"}, &err).has_value());
    EXPECT_FALSE(parse({"--dma-delay-us", "0"}, &err).has_value());
    EXPECT_FALSE(parse({"--firmware-stall", "abc"}, &err).has_value());
    EXPECT_NE(err.find("--firmware-stall"), std::string::npos);
    EXPECT_FALSE(parse({"--kill-guest", "1:40"}, &err).has_value());
    EXPECT_FALSE(
        parse({"--firmware-stall", "4294967296@150:5"}, &err).has_value());
    EXPECT_FALSE(parse({"--kill-guest", "-1@150"}, &err).has_value());
    EXPECT_FALSE(parse({"--drop-rate", "nan"}, &err).has_value());
    std::string missing = tempPath("no-such-plan.txt");
    EXPECT_FALSE(parse({"--fault-plan", missing.c_str()}, &err).has_value());
}

TEST(CliFault, FaultPlanFileLoaded)
{
    std::string path = tempPath("cli_fault_plan.txt");
    {
        std::ofstream f(path);
        f << "# test plan\n"
             "drop-rate 0.02\n"
             "firmware-stall 1@10:2 no-reset\n"
             "kill-guest 0@30\n";
    }
    auto opt = parse({"--fault-plan", path.c_str(), "--dup-rate", "0.005"});
    std::remove(path.c_str());
    ASSERT_TRUE(opt.has_value());
    const FaultPlan &p = opt->config.faults;
    EXPECT_DOUBLE_EQ(p.rates.frameDrop, 0.02);
    EXPECT_DOUBLE_EQ(p.rates.frameDuplicate, 0.005); // flag after the file
    ASSERT_EQ(p.firmwareStalls.size(), 1u);
    EXPECT_EQ(p.firmwareStalls[0].nic, 1u);
    EXPECT_FALSE(p.firmwareStalls[0].watchdogReset);
    ASSERT_EQ(p.guestKills.size(), 1u);
    EXPECT_EQ(p.guestKills[0].guest, 0u);
}

TEST(CliFault, FlagsBeforeFaultPlanFileStillApply)
{
    // Flags and files apply in command-line order: a rate the file does
    // not set survives, a rate it sets replaces the flag's, and the
    // scheduled faults of both accumulate in order.
    std::string path = tempPath("cli_fault_plan_base.txt");
    {
        std::ofstream f(path);
        f << "drop-rate 0.02\n"
             "kill-guest 0@30\n";
    }
    auto opt = parse({"--dup-rate", "0.05", "--drop-rate", "0.5",
                      "--kill-guest", "1@20", "--fault-plan", path.c_str()});
    std::remove(path.c_str());
    ASSERT_TRUE(opt.has_value());
    const FaultPlan &p = opt->config.faults;
    EXPECT_DOUBLE_EQ(p.rates.frameDuplicate, 0.05);
    EXPECT_DOUBLE_EQ(p.rates.frameDrop, 0.02);
    ASSERT_EQ(p.guestKills.size(), 2u);
    EXPECT_EQ(p.guestKills[0].guest, 1u);
    EXPECT_EQ(p.guestKills[1].guest, 0u);
}

// ----------------------------------------------------- observability ----

TEST(Cli, ObservabilityFlags)
{
    auto opt = parse({"--trace", "out.json", "--trace-filter", "cdna,cpu",
                      "--stats-json", "stats.json", "--sample-period",
                      "50"});
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->traceFile, "out.json");
    EXPECT_EQ(opt->traceFilter, "cdna,cpu");
    EXPECT_EQ(opt->statsJsonFile, "stats.json");
    EXPECT_EQ(opt->samplePeriod, sim::microseconds(50.0));

    auto defaults = parse({});
    ASSERT_TRUE(defaults.has_value());
    EXPECT_TRUE(defaults->traceFile.empty());
    EXPECT_TRUE(defaults->statsJsonFile.empty());
    EXPECT_EQ(defaults->samplePeriod, 0);

    std::string err;
    EXPECT_FALSE(parse({"--trace"}, &err).has_value());
    EXPECT_FALSE(parse({"--sample-period", "-3"}, &err).has_value());
}

TEST(Cli, ObservabilityWithoutOutputIsRejected)
{
    // Sampling shapes what --trace or --stats-json writes, so either
    // output makes it valid; a trace filter picks trace lanes, so only
    // --trace does.
    auto accepted = [](std::vector<std::string> args) {
        std::string err;
        bool ok = parseCli(args, &err).has_value();
        if (!ok) {
            EXPECT_NE(err.find("write nothing"), std::string::npos) << err;
        }
        return ok;
    };
    EXPECT_FALSE(accepted({"--sample-period", "50"}));
    EXPECT_TRUE(accepted({"--sample-period", "50", "--trace", "t.json"}));
    EXPECT_TRUE(
        accepted({"--sample-period", "50", "--stats-json", "s.json"}));
    EXPECT_FALSE(accepted({"--trace-filter", "cdna"}));
    EXPECT_TRUE(accepted({"--trace-filter", "cdna", "--trace", "t.json"}));
    EXPECT_FALSE(
        accepted({"--trace-filter", "cdna", "--stats-json", "s.json"}));
}

namespace {

/** A 1 + 2 ms run of @p opt's config, observed as cdna_sim observes. */
sim::RunPoint
observedPoint(const CliOptions &opt)
{
    sim::RunPoint point;
    point.config = opt.config;
    point.warmup = sim::milliseconds(1);
    point.measure = sim::milliseconds(2);
    point.observe = &opt;
    return point;
}

} // namespace

TEST(Cli, ObservabilitySessionWritesOnClose)
{
    // The executor's Topology::run writes both files when the run ends.
    std::string trace = tempPath("cli_obs_trace.json");
    std::string stats = tempPath("cli_obs_stats.json");
    std::remove(trace.c_str());
    std::remove(stats.c_str());
    auto opt = parse({"--trace", trace.c_str(), "--stats-json",
                      stats.c_str(), "--guests", "1"});
    ASSERT_TRUE(opt.has_value());

    sim::runHost(observedPoint(*opt));
    EXPECT_TRUE(fileExists(trace));
    EXPECT_TRUE(fileExists(stats));
    std::remove(trace.c_str());
    std::remove(stats.c_str());
}

TEST(Cli, SampledStatsHaveABacklogSeriesPerStackAndNoSamples)
{
    // Two guests on two NICs: four stacks.
    std::string stats = tempPath("cli_obs_backlog.json");
    auto opt = parse({"--stats-json", stats.c_str(), "--sample-period",
                      "500", "--guests", "2"});
    ASSERT_TRUE(opt.has_value());
    sim::runHost(observedPoint(*opt));
    std::ifstream in(stats);
    std::string json((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::remove(stats.c_str());

    EXPECT_EQ(json.find("\"samples\""), std::string::npos);
    const std::string series = ".tx_backlog_depth\": [[";
    std::size_t n = 0;
    for (std::size_t at = json.find(series); at != std::string::npos;
         at = json.find(series, at + 1))
        ++n;
    EXPECT_EQ(n, 4u);
    for (const char *stack : {"stack0.0", "stack1.0", "stack0.1", "stack1.1"}) {
        std::string key = std::string("\"").append(stack).append(series);
        EXPECT_NE(json.find(key), std::string::npos) << stack;
    }
}

TEST(Cli, ObservabilitySessionReportsWriteErrors)
{
    std::string bad = tempPath("no-such-dir/stats.json");
    auto opt = parse({"--stats-json", bad.c_str()});
    ASSERT_TRUE(opt.has_value());
    try {
        sim::runHost(observedPoint(*opt));
        ADD_FAILURE() << "an unwritable --stats-json path must throw";
    } catch (const std::runtime_error &e) {
        EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
            << e.what();
    }
}

// --------------------------------------------------------------- misc ----

TEST(Cli, EqualsFormAccepted)
{
    auto opt = parse({"--trace=out.json", "--guests=4", "--mode=xen",
                      "--stats-json=s.json"});
    ASSERT_TRUE(opt.has_value());
    EXPECT_EQ(opt->traceFile, "out.json");
    EXPECT_EQ(opt->config.numGuests, 4u);
    EXPECT_EQ(opt->config.arch, Arch::kXenIntel);
    EXPECT_EQ(opt->statsJsonFile, "s.json");
}

TEST(Cli, JsonContainsAllKeys)
{
    Report r;
    r.label = "test/tx";
    r.mbps = 1867.5;
    r.idlePct = 50.8;
    r.perGuestMbps = {933.7, 933.8};
    r.protectionFaults = 2;
    r.faultFramesDropped = 7;
    r.mailboxTimeouts = 3;
    std::string json = reportToJson(r);
    for (const char *key :
         {"\"label\"", "\"mbps\"", "\"hyp_pct\"", "\"idle_pct\"",
          "\"guest_intr_per_sec\"", "\"latency_p99_us\"", "\"fairness\"",
          "\"protection_faults\"", "\"dma_violations\"",
          "\"rx_drops_no_desc\"", "\"rx_drops_no_buf\"",
          "\"rx_drops_filter\"", "\"frames_dropped\"",
          "\"frames_corrupted\"", "\"frames_duplicated\"",
          "\"dma_delays\"", "\"firmware_stalls\"", "\"guest_kills\"",
          "\"mailbox_timeouts\"", "\"ring_resyncs\"",
          "\"per_guest_mbps\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
    EXPECT_NE(json.find("test/tx"), std::string::npos);
    EXPECT_NE(json.find("1867.5"), std::string::npos);
    EXPECT_NE(json.find("933.70, 933.80"), std::string::npos);
    EXPECT_NE(json.find("\"frames_dropped\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"mailbox_timeouts\": 3"), std::string::npos);

    // Stable key order: fault counters sit between the protection
    // counters and the per-guest array.
    EXPECT_LT(json.find("\"dma_violations\""),
              json.find("\"frames_dropped\""));
    EXPECT_LT(json.find("\"frames_dropped\""),
              json.find("\"ring_resyncs\""));
    EXPECT_LT(json.find("\"ring_resyncs\""),
              json.find("\"per_guest_mbps\""));
}
