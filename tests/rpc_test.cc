/**
 * @file
 * End-to-end tests of the request/response RPC workload: requests reach
 * the guests through every virtualization path, responses come back
 * with measured tail latency, timeouts count outages, and the layer is
 * deterministic and -- when idle -- byte-inert (the six paper headline
 * reports stay bit-identical to their goldens with a zero-rate spec
 * attached).
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/system.hh"
#include "net/workload/workload_engine.hh"
#include "sim/sweep.hh"
#include "sim/sweep_presets.hh"

using namespace cdna;
using namespace cdna::core;
namespace wl = cdna::net::workload;

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/** 512 B requests, 8 KiB responses, Poisson arrivals at @p rate. */
wl::WorkloadSpec
rpcSpec(double rate)
{
    return wl::WorkloadSpec{}.withClass(wl::FlowClass::rpc().poissonAt(rate));
}

} // namespace

TEST(Rpc, RequestsAnsweredUnderCdna)
{
    System sys(SystemConfig::cdna(2).withNics(1).receive().withWorkload(
        rpcSpec(4000.0)));
    auto r = sys.run(sim::milliseconds(20), sim::milliseconds(100));
    EXPECT_GT(r.rpcRequests, 300u);
    // Nearly every request completes (edge-of-window stragglers aside).
    EXPECT_GT(r.rpcResponses, r.rpcRequests * 9 / 10);
    EXPECT_EQ(r.rpcTimeouts, 0u);
    EXPECT_GT(r.rpcOfferedRps, 3000.0);
    EXPECT_GT(r.rpcAchievedRps, 3000.0);
    // Latency is measured, sane, and its quantiles are ordered.
    EXPECT_GT(r.rpcLatMeanUs, 10.0);
    EXPECT_LT(r.rpcLatMeanUs, 10000.0);
    EXPECT_LE(r.rpcLatP50Us, r.rpcLatP99Us);
    EXPECT_LE(r.rpcLatP99Us, r.rpcLatP999Us);
    // Flow accounting rides along.
    EXPECT_EQ(r.flowsStarted, r.rpcRequests);
    EXPECT_EQ(r.flowsCompleted, r.rpcResponses);
}

TEST(Rpc, RequestsAnsweredUnderXen)
{
    System sys(SystemConfig::xenRice(2).withNics(1).receive().withWorkload(
        rpcSpec(4000.0)));
    auto r = sys.run(sim::milliseconds(20), sim::milliseconds(100));
    EXPECT_GT(r.rpcRequests, 300u);
    EXPECT_GT(r.rpcResponses, r.rpcRequests * 9 / 10);
    EXPECT_LE(r.rpcLatP50Us, r.rpcLatP99Us);
    EXPECT_LE(r.rpcLatP99Us, r.rpcLatP999Us);
}

TEST(Rpc, XenTailExceedsCdnaTail)
{
    // The software-multiplexed path adds driver-domain work per
    // request; its p99 must sit above CDNA's at the same offered load.
    auto tail = [](SystemConfig cfg) {
        System sys(std::move(cfg));
        return sys.run(sim::milliseconds(20), sim::milliseconds(200))
            .rpcLatP99Us;
    };
    double xen = tail(SystemConfig::xenRice(4).withNics(1).receive()
                          .withWorkload(rpcSpec(8000.0)));
    double cdna = tail(SystemConfig::cdna(4).withNics(1).receive()
                           .withWorkload(rpcSpec(8000.0)));
    EXPECT_GT(xen, 0.0);
    EXPECT_GT(cdna, 0.0);
    EXPECT_GT(xen, cdna);
}

TEST(Rpc, DriverDomainKillTimesOutXenButNotCdna)
{
    auto timeouts = [](SystemConfig cfg) {
        System sys(std::move(cfg).withFaults(
            FaultPlan{}.killingDriverDomain(30)));
        return sys.run(sim::milliseconds(20), sim::milliseconds(100))
            .rpcTimeouts;
    };
    // Xen funnels every request through dom0: the kill strands them.
    EXPECT_GT(timeouts(SystemConfig::xenRice(2).withNics(1).receive()
                           .withWorkload(rpcSpec(4000.0))),
              0u);
    // CDNA datapaths never touch dom0; no request is lost.
    EXPECT_EQ(timeouts(SystemConfig::cdna(2).withNics(1).receive()
                           .withWorkload(rpcSpec(4000.0))),
              0u);
}

TEST(Rpc, DuplicatedFramesAreAnsweredAndCompletedOnce)
{
    // Every wire delivers a fifth of its frames twice.  The guest stacks
    // drop duplicated requests, so no request is served twice, and the
    // peer drops duplicated responses, so none completes twice.
    System sys(SystemConfig::cdna(2)
                   .withNics(1)
                   .receive()
                   .withWorkload(rpcSpec(4000.0))
                   .withFaults(FaultPlan{}.duplicating(0.2)));
    sys.run(sim::milliseconds(20), sim::milliseconds(100));
    auto dups = [](const sim::SimObject &c) {
        return c.stats().findCounter("rx_duplicates")->value();
    };
    EXPECT_GT(dups(sys.stack(0, 0)) + dups(sys.stack(1, 0)), 0u);
    EXPECT_GT(dups(sys.peer(0)), 0u);
    const wl::WorkloadEngine *engine = sys.peer(0).engine();
    ASSERT_NE(engine, nullptr);
    EXPECT_GT(engine->rpcResponses(), 300u);
    EXPECT_LE(engine->rpcResponses(), engine->rpcRequests());
    EXPECT_EQ(engine->rpcLatency().count(), engine->rpcResponses());
}

TEST(Rpc, ReportIsDeterministicAcrossRebuilds)
{
    auto run = [] {
        System sys(SystemConfig::cdna(2).withNics(1).receive().withWorkload(
            rpcSpec(4000.0)));
        return reportToJson(
            sys.run(sim::milliseconds(20), sim::milliseconds(100)));
    };
    EXPECT_EQ(run(), run());
}

TEST(Rpc, LatencyPresetDeterministicAcrossJobs)
{
    // The full preset is 18 cells; two seeds of its grid suffice here.
    auto spec = sim::presets::latency()
                    .warmup(sim::milliseconds(5))
                    .measure(sim::milliseconds(20));
    sim::SweepOptions j1;
    j1.jobs = 1;
    sim::SweepOptions j8;
    j8.jobs = 8;
    auto a = sim::runSweep(spec, j1);
    auto b = sim::runSweep(spec, j8);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    EXPECT_EQ(sim::sweepToJson(a), sim::sweepToJson(b));
    // The preset's cells actually exercise the RPC machinery.
    bool any_rpc = false;
    for (const auto &run : a.runs)
        any_rpc |= run.json.find("\"rpc_requests\": 0,") == std::string::npos;
    EXPECT_TRUE(any_rpc);
}

/**
 * The workload layer must be byte-inert when idle: attaching a
 * zero-rate spec (plus, on receive, the saturating class replicating
 * the legacy flood) leaves all six paper headline report documents
 * byte-identical to their goldens.  This pins the RNG-stream isolation
 * -- engine construction draws nothing from the context stream.
 */
TEST(Rpc, ZeroRateSpecKeepsHeadlineGoldensBitIdentical)
{
    // Poisson at rate 0 never fires; the class exists only to force the
    // engine (and the guests' rpc-server handler) to be built.
    auto idle_rpc = wl::FlowClass::rpc().poissonAt(0.0);
    wl::WorkloadSpec tx_spec = wl::WorkloadSpec{}.withClass(idle_rpc);
    wl::WorkloadSpec rx_spec =
        wl::WorkloadSpec{}
            .withClass(wl::FlowClass::saturating())
            .withClass(idle_rpc);
    struct Cfg
    {
        const char *file;
        SystemConfig cfg;
    };
    std::vector<Cfg> cfgs = {
        {"headline-xen-intel-tx.json",
         SystemConfig::xenIntel(1).withWorkload(tx_spec)},
        {"headline-xen-intel-rx.json",
         SystemConfig::xenIntel(1).receive().withWorkload(rx_spec)},
        {"headline-xen-rice-tx.json",
         SystemConfig::xenRice(1).withWorkload(tx_spec)},
        {"headline-xen-rice-rx.json",
         SystemConfig::xenRice(1).receive().withWorkload(rx_spec)},
        {"headline-cdna-rice-tx.json",
         SystemConfig::cdna(1).withWorkload(tx_spec)},
        {"headline-cdna-rice-rx.json",
         SystemConfig::cdna(1).receive().withWorkload(rx_spec)},
    };
    for (auto &c : cfgs) {
        std::string golden =
            readFile(std::string(CDNA_GOLDEN_DIR) + "/" + c.file);
        ASSERT_FALSE(golden.empty()) << c.file;
        System sys(c.cfg);
        auto r = sys.run(sim::milliseconds(50), sim::milliseconds(200));
        EXPECT_EQ(r.rpcRequests, 0u) << c.file;
        EXPECT_EQ(reportToJson(r), golden)
            << c.file << ": report diverged under idle workload";
    }
}
