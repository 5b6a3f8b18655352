/**
 * @file
 * Coverage for remaining small surfaces: the warning line, the stats
 * dump, IOMMU drop accounting at the NIC, and report edge cases.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "sim/metrics_registry.hh"

using namespace cdna;
using namespace cdna::core;

TEST(SimObject, WarnPrintsOneTimestampedLine)
{
    struct Widget : sim::SimObject
    {
        explicit Widget(sim::SimContext &c) : SimObject(c, "widget") {}
        using SimObject::warn;
    };
    sim::SimContext ctx;
    Widget w(ctx);
    ctx.events().schedule(sim::microseconds(12.5), [&w] {
        w.warn("context %u fault: %s", 3u, "bad-seqno");
    });
    testing::internal::CaptureStderr();
    ctx.events().run();
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "[        12.500 us] WARN  widget         "
              "context 3 fault: bad-seqno\n");
}

TEST(Misc, EventQueueRunCapsEventCount)
{
    sim::EventQueue eq;
    int fired = 0;
    std::function<void()> self = [&] {
        ++fired;
        eq.schedule(1, self);
    };
    eq.schedule(1, self);
    EXPECT_EQ(eq.run(25), 25u);
    EXPECT_EQ(fired, 25);
}

TEST(Misc, HistogramMergeFromEmpty)
{
    sim::Histogram a, b;
    a.merge(b);
    EXPECT_EQ(a.count(), 0u);
    b.record(5);
    a.merge(b);
    EXPECT_EQ(a.count(), 1u);
}

TEST(Misc, NicIommuDropAccounting)
{
    // A per-device IOMMU mis-bound for CDNA drops traffic at the NIC,
    // and the NIC accounts for every suppressed packet.
    SystemConfig cfg = SystemConfig::cdna(2);
    cfg.numNics = 1;
    cfg.iommuMode = mem::Iommu::Mode::kPerDevice;
    System sys(cfg);
    sys.run(sim::milliseconds(20), sim::milliseconds(60));
    // Guest 1's DMA is blocked; its packets are dropped, not sent.
    EXPECT_GT(sys.cdnaNic(0)->iommuDrops(), 0u);
    EXPECT_EQ(sys.mem().violationCount(), 0u);
}

TEST(Misc, SystemStatsDumpEnumeratesComponents)
{
    SystemConfig cfg = SystemConfig::cdna(1);
    System sys(cfg);
    sys.run(sim::milliseconds(10), sim::milliseconds(20));
    std::string json = sim::MetricsRegistry(sys.ctx()).toJson();
    // True when @p counter sits inside component @p obj's object.
    auto has = [&json](const std::string &obj, const std::string &counter) {
        std::size_t at = json.find("\"" + obj + "\": {");
        if (at == std::string::npos)
            return false;
        return json.find("\"" + counter + "\":", at) <
               json.find("\n  }", at);
    };
    EXPECT_TRUE(has("cdna0", "tx_packets"));
    EXPECT_TRUE(has("hypervisor", "hypercalls"));
    EXPECT_TRUE(has("phys-mem", "dma_accesses"));
}

TEST(Misc, ReportWindowAndLabelPropagate)
{
    System sys(SystemConfig::cdna(1));
    auto r = sys.run(sim::milliseconds(10), sim::milliseconds(30));
    EXPECT_EQ(r.label, "cdna/tx");
    EXPECT_EQ(r.window, sim::milliseconds(30));
}

TEST(Misc, PerGuestThroughputSumsToAggregate)
{
    SystemConfig cfg = SystemConfig::cdna(3);
    System sys(cfg);
    auto r = sys.run(sim::milliseconds(40), sim::milliseconds(120));
    double sum = 0;
    for (double g : r.perGuestMbps)
        sum += g;
    EXPECT_NEAR(sum, r.mbps, r.mbps * 0.02);
}

TEST(Misc, NativeModeHasNoHypervisorActivity)
{
    SystemConfig cfg = SystemConfig::native(2);
    System sys(cfg);
    auto r = sys.run(sim::milliseconds(40), sim::milliseconds(100));
    EXPECT_LT(r.hypPct, 1.0);
    EXPECT_DOUBLE_EQ(r.hypercallPerSec, 0.0);
    EXPECT_GT(r.mbps, 1500.0);
}
