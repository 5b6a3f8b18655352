/**
 * @file
 * Unit tests for the benchmark application (window bookkeeping,
 * connection round-robin, sink accounting) and for the declarative
 * workload layer (spec fluency, applyWorkload equivalence with the
 * legacy setter sequence, seeded Poisson arrivals).
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/eth_link.hh"
#include "net/traffic_peer.hh"
#include "net/workload/workload_engine.hh"
#include "os/net_stack.hh"
#include "vmm/hypervisor.hh"
#include "workload/traffic_app.hh"

using namespace cdna;

namespace {

/** NetDevice that records transmissions and completes them on demand. */
struct EchoDevice : os::NetDevice
{
    std::vector<net::Packet> sent;
    bool tso = true;

    bool canTransmit() const override { return true; }
    void transmit(net::Packet pkt) override { sent.push_back(std::move(pkt)); }
    net::MacAddr mac() const override { return net::MacAddr::fromId(1); }
    bool tsoCapable() const override { return tso; }

    void
    completeAll()
    {
        auto batch = std::exchange(sent, {});
        for (auto &p : batch)
            deliverTxComplete(p.payloadBytes);
    }

    using NetDevice::deliverRx;
};

struct AppFixture : ::testing::Test
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 4096};
    cpu::SimCpu cpu{ctx, "cpu"};
    vmm::Hypervisor hv{ctx, cpu, mem};
    EchoDevice dev;
    vmm::Domain *dom = nullptr;
    std::unique_ptr<os::NetStack> stack;

    void
    SetUp() override
    {
        dom = &hv.createDomain(vmm::Domain::Kind::kGuest, "g");
        stack = std::make_unique<os::NetStack>(ctx, "stack", *dom, dev);
        stack->setDefaultDst(net::MacAddr::fromId(2));
    }
};

} // namespace

using App = workload::TrafficApp;

/** Chunks the window holds: 512 KB of 64 KB writes. */
constexpr std::uint64_t kWindowChunks = App::kWindowBytes / App::kChunkBytes;

TEST_F(AppFixture, TransmitFillsWindowThenWaits)
{
    ASSERT_EQ(kWindowChunks, 8u);
    App::Params params;
    params.transmit = true;
    App app(ctx, "app", *stack, params);
    app.start();
    ctx.events().run();

    // Exactly window/chunk chunks in flight; generation paused.
    EXPECT_EQ(app.bytesSent(), kWindowChunks * App::kChunkBytes);
    EXPECT_EQ(dev.sent.size(), kWindowChunks); // one TSO segment per chunk

    // Completions reopen the window.
    dev.completeAll();
    ctx.events().run();
    EXPECT_EQ(app.bytesSent(), 2 * kWindowChunks * App::kChunkBytes);
}

TEST_F(AppFixture, RoundRobinAcrossConnections)
{
    App::Params params;
    params.transmit = true;
    App app(ctx, "app", *stack, params);
    app.start();
    ctx.events().run();
    ASSERT_EQ(dev.sent.size(), kWindowChunks);
    // The chunks alternate between the two connections (flow ids 1, 2).
    ASSERT_EQ(App::kConnections, 2u);
    for (std::size_t i = 0; i < dev.sent.size(); ++i)
        EXPECT_EQ(dev.sent[i].flowId, i % 2 + 1) << "chunk " << i;
}

TEST_F(AppFixture, ReceiveModeOnlySinks)
{
    App::Params params;
    params.transmit = false;
    App app(ctx, "app", *stack, params);
    app.start();
    ctx.events().run();
    EXPECT_EQ(app.bytesSent(), 0u);
    EXPECT_TRUE(dev.sent.empty());

    net::Packet p;
    p.payloadBytes = 1000;
    p.src = net::MacAddr::fromId(9);
    dev.deliverRx(std::move(p));
    ctx.events().run();
    EXPECT_EQ(app.bytesReceived(), 1000u);
    EXPECT_EQ(app.packetsReceived(), 1u);
}

TEST_F(AppFixture, StartIsIdempotent)
{
    App::Params params;
    params.transmit = true;
    App app(ctx, "app", *stack, params);
    std::uint64_t free_before = mem.freePages();
    app.start();
    app.start();
    ctx.events().run();
    // One window's worth, from one buffer per connection.
    EXPECT_EQ(app.bytesSent(), App::kWindowBytes);
    EXPECT_EQ(free_before - mem.freePages(),
              App::kConnections * App::kChunkBytes / mem::kPageSize);
}

TEST_F(AppFixture, UserTimeChargedForWrites)
{
    App::Params params;
    params.transmit = true;
    App app(ctx, "app", *stack, params);
    app.start();
    ctx.events().run();
    EXPECT_GT(cpu.profile().domainTime(dom->id(), cpu::Bucket::kUser), 0);
}

// ------------------------------------------------- declarative specs ----

namespace {

/** Far-end frame counter for peer-driven workload tests. */
struct FrameSink : net::LinkEndpoint
{
    std::vector<net::Packet> got;
    void receiveFrame(net::Packet pkt) override
    {
        got.push_back(std::move(pkt));
    }
};

} // namespace

TEST(Workload, SpecFluencyAndPredicates)
{
    namespace wl = net::workload;
    wl::WorkloadSpec spec;
    EXPECT_TRUE(spec.empty());
    EXPECT_FALSE(spec.hasRpc());
    spec.withClass(wl::FlowClass::rpc().poissonAt(5000.0))
        .ackingEvery(2)
        .overTcp();
    EXPECT_FALSE(spec.empty());
    EXPECT_TRUE(spec.hasRpc());
    ASSERT_EQ(spec.classes.size(), 1u);
    const wl::FlowClass &fc = spec.classes[0];
    EXPECT_EQ(fc.kind, wl::FlowKind::kRpc);
    EXPECT_EQ(fc.ratePerSec, 5000.0);
    EXPECT_TRUE(spec.tcp);
    ASSERT_TRUE(spec.ackEvery.has_value());
    EXPECT_EQ(*spec.ackEvery, 2u);

    // A saturating-only spec runs on the peer's own source.
    wl::WorkloadSpec flood;
    flood.withClass(wl::FlowClass::saturating());
    EXPECT_FALSE(flood.hasRpc());
}

TEST(Workload, PoissonArrivalsAreSeededDeterministically)
{
    // Same seed => identical arrival sequence; different seed =>
    // different draws from the dedicated workload stream.
    namespace wl = net::workload;
    auto run = [](std::uint64_t seed) {
        sim::SimContext ctx;
        net::EthLink link(ctx, "eth");
        net::TrafficPeer peer(ctx, "peer", link);
        FrameSink sink;
        link.bind(sink);
        wl::WorkloadSpec spec = wl::WorkloadSpec{}
                                    .toward({net::MacAddr::fromId(1)})
                                    .withClass(wl::FlowClass::rpc().poissonAt(
                                        20000.0));
        spec.seed = seed;
        peer.applyWorkload(spec);
        ctx.events().runUntil(sim::milliseconds(20));
        std::vector<sim::Time> stamps;
        for (const auto &p : sink.got)
            stamps.push_back(p.created);
        return stamps;
    };
    auto a1 = run(42);
    auto a2 = run(42);
    auto b = run(43);
    EXPECT_FALSE(a1.empty());
    EXPECT_EQ(a1, a2);
    EXPECT_NE(a1, b);
}

