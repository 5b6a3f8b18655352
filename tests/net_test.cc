/**
 * @file
 * Unit tests for the network substrate: packets/framing math, links,
 * and the ideal traffic peer (including TCP-ACK generation).
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <map>
#include <set>
#include <tuple>
#include <vector>

#include "net/eth_link.hh"
#include "net/packet.hh"
#include "net/traffic_peer.hh"
#include "sim/fault_injector.hh"
#include "sim/sim_object.hh"

using namespace cdna;
using namespace cdna::net;

// ----------------------------------------------------------------- mac ----

TEST(MacAddr, FromIdDistinct)
{
    EXPECT_EQ(MacAddr::fromId(7), MacAddr::fromId(7));
    EXPECT_NE(MacAddr::fromId(7), MacAddr::fromId(8));
    EXPECT_NE(MacAddr::fromId(7).hash(), MacAddr::fromId(8).hash());
}

TEST(MacTable, KeysWholeAddresses)
{
    // fromId(131) and fromId(256) end in bytes (0, 131) and (1, 0), which
    // hash alike; a table keyed by the whole address tells them apart.
    const MacAddr a = MacAddr::fromId(131);
    const MacAddr b = MacAddr::fromId(256);
    ASSERT_EQ(a.hash(), b.hash());
    MacTable<int> t;
    t.set(b, 2);
    t.set(a, 1);
    ASSERT_NE(t.find(a), nullptr);
    ASSERT_NE(t.find(b), nullptr);
    EXPECT_EQ(*t.find(a), 1);
    EXPECT_EQ(*t.find(b), 2);
    t.set(a, 3); // replaces
    EXPECT_EQ(*t.find(a), 3);
    t.erase(b);
    EXPECT_EQ(t.find(b), nullptr);
    EXPECT_EQ(*t.find(a), 3);
    t.erase(b); // already gone: nothing
    EXPECT_EQ(*t.find(a), 3);

    // Inserted out of order, every entry is still found.
    MacTable<std::uint32_t> many;
    for (std::uint32_t i = 0; i < 64; ++i)
        many.set(MacAddr::fromId(i * 37 % 64), i * 37 % 64);
    for (std::uint32_t i = 0; i < 64; ++i) {
        ASSERT_NE(many.find(MacAddr::fromId(i)), nullptr) << i;
        EXPECT_EQ(*many.find(MacAddr::fromId(i)), i);
    }
    EXPECT_EQ(many.find(MacAddr::fromId(64)), nullptr);
}

TEST(MacAddr, StringForm)
{
    std::string s = MacAddr::fromId(0x123456).str();
    EXPECT_EQ(s, "02:cd:4a:12:34:56");
}

TEST(MacAddr, OrderIsByteLexicographic)
{
    // Every byte position takes values on both sides of 0x80, so a
    // signed or wrongly ordered byte would break the comparison.
    const std::uint8_t vals[] = {0x00, 0x01, 0x7f, 0x80, 0x81, 0xff};
    std::vector<std::array<std::uint8_t, 6>> raws;
    for (int pos = 0; pos < 6; ++pos)
        for (std::uint8_t hi : vals)
            for (std::uint8_t lo : vals) {
                std::array<std::uint8_t, 6> b{};
                b[pos] = hi;
                b[(pos + 1) % 6] = lo;
                raws.push_back(b);
            }
    std::map<MacAddr, std::size_t> byMac;
    for (std::size_t i = 0; i < raws.size(); ++i) {
        const auto a = std::bit_cast<MacAddr>(raws[i]);
        ASSERT_EQ(a.raw(), raws[i]);
        byMac.emplace(a, i);
        for (const auto &rb : raws) {
            const auto b = std::bit_cast<MacAddr>(rb);
            EXPECT_EQ(a <=> b, raws[i] <=> rb) << a.str() << " vs " << b.str();
            EXPECT_EQ(a == b, raws[i] == rb);
        }
    }
    // A map keyed by MacAddr iterates in byte order.
    std::set<std::array<std::uint8_t, 6>> sorted(raws.begin(), raws.end());
    ASSERT_EQ(byMac.size(), sorted.size());
    auto it = sorted.begin();
    for (const auto &[mac, i] : byMac)
        EXPECT_EQ(mac.raw(), *it++);
}

// -------------------------------------------------------------- packet ----

TEST(Packet, SingleFrameWireMath)
{
    Packet p;
    p.payloadBytes = kMss;
    EXPECT_EQ(p.wireFrames(), 1u);
    EXPECT_EQ(p.wireBytes(), kMss + kWireOverhead);
    // A full frame occupies 1538 bytes of wire.
    EXPECT_EQ(p.wireBytes(), 1538u);
}

TEST(Packet, TsoSegmentFrameCount)
{
    Packet p;
    p.payloadBytes = 65536;
    EXPECT_EQ(p.wireFrames(), (65536 + kMss - 1) / kMss);
    EXPECT_EQ(p.wireBytes(),
              65536ull + p.wireFrames() * std::uint64_t(kWireOverhead));
}

TEST(Packet, PureAckIsOneSmallFrame)
{
    Packet p;
    p.payloadBytes = 0;
    EXPECT_EQ(p.wireFrames(), 1u);
    EXPECT_EQ(p.wireBytes(), kWireOverhead);
}

TEST(Packet, GoodputCeilingMatchesPaperPlateau)
{
    // 1 Gb/s x 1460/1538 = 949.3 Mb/s per NIC; two NICs ~1899 Mb/s --
    // the ceiling under the paper's 1867/1874 Mb/s CDNA results.
    double per_nic = 1e9 * double(kMss) / double(kMss + kWireOverhead);
    EXPECT_NEAR(2 * per_nic / 1e6, 1899.0, 1.0);
}

// ---------------------------------------------------------------- link ----

namespace {

struct Sink : LinkEndpoint
{
    std::vector<Packet> got;
    sim::Time last_at = 0;
    sim::EventQueue *eq = nullptr;

    void
    receiveFrame(Packet pkt) override
    {
        got.push_back(std::move(pkt));
        if (eq)
            last_at = eq->now();
    }
};

} // namespace

TEST(EthLink, SerializationAndPropagationTiming)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    Sink sink;
    sink.eq = &ctx.events();
    link.bind(sink);

    Packet p;
    p.payloadBytes = kMss;
    sim::Time serialized = 0;
    link.port(1).send(p, 0, [&] { serialized = ctx.now(); });
    ctx.events().run();
    // 1538 bytes at 8 ns/byte = 12.304 us, then 500 ns of cable.
    EXPECT_EQ(serialized, sim::nanoseconds(1538 * 8));
    EXPECT_EQ(wireTime(1538), serialized);
    ASSERT_EQ(sink.got.size(), 1u);
    EXPECT_EQ(sink.last_at, serialized + kWirePropagation);
    EXPECT_EQ(kWirePropagation, sim::nanoseconds(500));
}

TEST(EthLink, BackToBackFramesQueue)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    Sink sink;
    sink.eq = &ctx.events();
    link.bind(sink);
    Packet p;
    p.payloadBytes = kMss;
    link.port(1).send(p);
    link.port(1).send(p);
    ctx.events().run();
    ASSERT_EQ(sink.got.size(), 2u);
    EXPECT_EQ(sink.last_at,
              2 * sim::nanoseconds(1538 * 8) + kWirePropagation);
    EXPECT_EQ(link.port(1).payloadCarried(), 2ull * kMss);
    EXPECT_EQ(link.port(0).payloadDelivered(), 2ull * kMss);
}

TEST(EthLink, ExtraGapDelaysNextFrame)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    Sink sink;
    sink.eq = &ctx.events();
    link.bind(sink);
    Packet p;
    p.payloadBytes = kMss;
    link.port(1).send(p, sim::microseconds(5));
    link.port(1).send(p);
    ctx.events().run();
    EXPECT_EQ(sink.last_at, 2 * sim::nanoseconds(1538 * 8) +
                                sim::microseconds(5) + kWirePropagation);
}

TEST(EthLink, DirectionsIndependent)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    Sink a, b;
    Port &pa = link.bind(a);
    Port &pb = link.bind(b);
    Packet p;
    p.payloadBytes = 100;
    pa.send(p);
    pb.send(p);
    ctx.events().run();
    EXPECT_EQ(a.got.size(), 1u);
    EXPECT_EQ(b.got.size(), 1u);
}

TEST(EthLink, HostSgClearedOnWire)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    Sink sink;
    link.bind(sink);
    Packet p;
    p.payloadBytes = 100;
    p.hostSg = {{0x1000, 100}};
    link.port(1).send(std::move(p));
    ctx.events().run();
    ASSERT_EQ(sink.got.size(), 1u);
    EXPECT_TRUE(sink.got[0].hostSg.empty());
}

namespace {

/** (time, frame id, 's'erialized / 'a'rrived / 'd'uplicate arrived). */
using WireStep = std::tuple<sim::Time, std::uint64_t, char>;

/**
 * Hand a link 64 back-to-back MSS frames at t=0, each with a serialized
 * callback, and log every callback and arrival.  @p pending receives
 * the event count right after the sends.
 */
std::vector<WireStep>
sendBacklog(double duplicate_rate, std::size_t &pending)
{
    sim::SimContext ctx;
    sim::FaultRates rates;
    rates.frameDuplicate = duplicate_rate;
    sim::FaultInjector fi(ctx, "faults", 1, rates);
    ctx.setFaultInjector(&fi);
    EthLink link(ctx, "eth");
    std::vector<WireStep> log;
    struct LogSink : LinkEndpoint
    {
        sim::SimContext *ctx = nullptr;
        std::vector<WireStep> *log = nullptr;
        void
        receiveFrame(Packet pkt) override
        {
            log->emplace_back(ctx->now(), pkt.flowId,
                              pkt.duplicated ? 'd' : 'a');
        }
    } sink;
    sink.ctx = &ctx;
    sink.log = &log;
    link.bind(sink);
    for (std::uint64_t k = 0; k < 64; ++k) {
        Packet p;
        p.payloadBytes = kMss;
        p.flowId = k;
        link.port(1).send(std::move(p), 0, [&ctx, &log, k] {
            log.emplace_back(ctx.now(), k, 's');
        });
    }
    pending = ctx.events().pendingCount();
    ctx.events().run();
    return log;
}

} // namespace

TEST(EthLink, BacklogArmsOnlyItsHead)
{
    // The second pass duplicates every frame: each duplicate lands right
    // behind its original, before the next frame.
    for (double duplicate_rate : {0.0, 1.0}) {
        SCOPED_TRACE(duplicate_rate);
        std::size_t pending = 0;
        std::vector<WireStep> log = sendBacklog(duplicate_rate, pending);
        // One serialized callback and one arrival are events; the rest
        // wait in the wire's FIFOs.
        EXPECT_EQ(pending, 2u);
        // Frame k's last byte leaves at (k+1) x 12.304 us and it lands
        // 500 ns later, before frame k+1 finishes serializing.
        std::vector<WireStep> want;
        for (std::uint64_t k = 0; k < 64; ++k) {
            sim::Time end = sim::Time(k + 1) * sim::nanoseconds(1538 * 8);
            want.emplace_back(end, k, 's');
            want.emplace_back(end + sim::nanoseconds(500), k, 'a');
            if (duplicate_rate > 0)
                want.emplace_back(end + sim::nanoseconds(500), k, 'd');
        }
        EXPECT_EQ(log, want);
    }
}

// ---------------------------------------------------------------- peer ----

TEST(TrafficPeer, SourcesRoundRobinAtLineRate)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    TrafficPeer peer(ctx, "peer", link);
    Sink sink;
    link.bind(sink);

    auto m1 = MacAddr::fromId(1);
    auto m2 = MacAddr::fromId(2);
    peer.applyWorkload(workload::WorkloadSpec{}
                           .toward({m1, m2})
                           .withClass(workload::FlowClass::saturating()));
    ctx.events().runUntil(sim::milliseconds(1));
    peer.stopSource();

    // ~81 full frames fit in 1 ms at 1 Gb/s.
    EXPECT_NEAR(static_cast<double>(sink.got.size()), 81.0, 2.0);
    int to1 = 0, to2 = 0;
    for (const auto &p : sink.got) {
        to1 += p.dst == m1;
        to2 += p.dst == m2;
    }
    EXPECT_LE(std::abs(to1 - to2), 1);
}

/**
 * The windowed source's rules, frame by frame: a window per destination
 * MAC (one MAC listed twice shares one), round-robin over the targets
 * skipping full windows, an ACK that opens only its sender's window,
 * and a 500 us retry that re-opens every window.
 */
TEST(TrafficPeer, WindowedSourceFollowsAcks)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    TrafficPeer peer(ctx, "peer", link);
    Sink sink;
    link.bind(sink);

    auto m1 = MacAddr::fromId(1);
    auto m2 = MacAddr::fromId(2);
    auto m3 = MacAddr::fromId(3);
    peer.applyWorkload(workload::WorkloadSpec{}
                           .ackingEvery(2)
                           .windowed(4)
                           .toward({m1, m2, m1})
                           .withClass(workload::FlowClass::saturating()));
    auto sentSince = [&](std::size_t from) {
        std::vector<MacAddr> dsts;
        for (std::size_t i = from; i < sink.got.size(); ++i)
            dsts.push_back(sink.got[i].dst);
        return dsts;
    };
    auto ackFrom = [&](MacAddr src) {
        Packet ack;
        ack.src = src;
        ack.dst = peer.mac();
        ack.payloadBytes = 0;
        link.port(1).send(ack);
    };

    // Eight frames (12.3 us each) fill both windows by about 100 us;
    // the retry timer is then due at about 600 us.
    ctx.events().runUntil(sim::microseconds(300));
    EXPECT_EQ(sentSince(0),
              (std::vector<MacAddr>{m1, m2, m1, m1, m2, m1, m2, m2}));

    // One ACK (two frames) from m2 releases two frames toward m2 only.
    ackFrom(m2);
    ctx.events().runUntil(sim::microseconds(400));
    EXPECT_EQ(sentSince(8), (std::vector<MacAddr>{m2, m2}));

    // An ACK from a MAC the source never targeted opens nothing.
    ackFrom(m3);
    ctx.events().runUntil(sim::microseconds(590));
    EXPECT_EQ(sink.got.size(), 10u);

    // The retry resets every window to its ACKed count: m1 has four
    // frames of room again, m2 four past its two ACKed frames.
    ctx.events().runUntil(sim::microseconds(800));
    EXPECT_EQ(sentSince(10),
              (std::vector<MacAddr>{m1, m1, m2, m1, m1, m2, m2, m2}));

    // ACKs for more frames than were sent are clamped: four ACKs (eight
    // frames) against m2's seven sent frames -- the first ACK frees one
    // more before the rest arrive -- open only five frames.
    for (int i = 0; i < 4; ++i)
        ackFrom(m2);
    ctx.events().runUntil(sim::microseconds(1000));
    EXPECT_EQ(sentSince(18), std::vector<MacAddr>(5, m2));
    peer.stopSource();
}

TEST(TrafficPeer, SinkCountsPayloadBySource)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    TrafficPeer peer(ctx, "peer", link);
    Packet p;
    p.src = MacAddr::fromId(5);
    p.payloadBytes = 1000;
    link.port(1).send(p);
    link.port(1).send(p);
    ctx.events().run();
    EXPECT_EQ(peer.payloadReceived(), 2000u);
    EXPECT_EQ(peer.receivedFrom(MacAddr::fromId(5)), 2000u);
    EXPECT_EQ(peer.receivedFrom(MacAddr::fromId(6)), 0u);
}

TEST(TrafficPeer, AcksEveryNthFrame)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    TrafficPeer peer(ctx, "peer", link);
    peer.applyWorkload(workload::WorkloadSpec{}.ackingEvery(2));
    Sink sink;
    link.bind(sink);

    Packet p;
    p.src = MacAddr::fromId(5);
    p.payloadBytes = kMss;
    for (int i = 0; i < 10; ++i)
        link.port(1).send(p);
    ctx.events().run();
    // 10 data frames -> 5 acks back to the sender.
    ASSERT_EQ(sink.got.size(), 5u);
    for (const auto &ack : sink.got) {
        EXPECT_EQ(ack.payloadBytes, 0u);
        EXPECT_EQ(ack.dst, MacAddr::fromId(5));
    }
}

TEST(TrafficPeer, TsoBurstAckedPerWireFrame)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    TrafficPeer peer(ctx, "peer", link);
    peer.applyWorkload(workload::WorkloadSpec{}.ackingEvery(2));
    Sink sink;
    link.bind(sink);

    Packet p;
    p.src = MacAddr::fromId(5);
    p.payloadBytes = 10 * kMss; // 10 wire frames in one burst
    link.port(1).send(p);
    ctx.events().run();
    EXPECT_EQ(sink.got.size(), 5u);
}

TEST(TrafficPeer, BadChecksumFramesCountedNotAcked)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    TrafficPeer peer(ctx, "peer", link);
    peer.applyWorkload(workload::WorkloadSpec{}.ackingEvery(1));
    Sink sink;
    link.bind(sink);
    Packet p;
    p.src = MacAddr::fromId(5);
    p.payloadBytes = kMss;
    p.intact = false; // failed FCS/checksum on the wire
    link.port(1).send(p);
    ctx.events().run();
    EXPECT_TRUE(sink.got.empty());
    EXPECT_EQ(peer.rxDropsBadCsum(), 1u);
    EXPECT_EQ(peer.payloadReceived(), 0u);
}

TEST(TrafficPeer, NeverAcksAnAck)
{
    sim::SimContext ctx;
    EthLink link(ctx, "eth");
    TrafficPeer peer(ctx, "peer", link);
    peer.applyWorkload(workload::WorkloadSpec{}.ackingEvery(1));
    Sink sink;
    link.bind(sink);
    Packet ack;
    ack.src = MacAddr::fromId(5);
    ack.payloadBytes = 0;
    for (int i = 0; i < 4; ++i)
        link.port(1).send(ack);
    ctx.events().run();
    EXPECT_TRUE(sink.got.empty());
}
