/**
 * @file
 * Transport-subsystem tests: Reno sender mechanics (slow start, fast
 * retransmit, RTO backoff), receiver reassembly and delayed ACKs, the
 * endpoint loopback (including loss recovery), closed-loop full-system
 * invariants (goodput <= wire throughput under every fault knob,
 * monotonic recovery as loss falls), and the golden headline check:
 * with the transport off, the six paper configurations must reproduce
 * the PR-3 reports line for line.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "core/report.hh"
#include "core/system.hh"
#include "net/transport/tcp.hh"
#include "sim/fault_injector.hh"

using namespace cdna;
using namespace cdna::net;
using namespace cdna::net::transport;

namespace {

constexpr std::uint64_t kSeg = kMss;

/** The counters a lone flow counts in, on a group of their own. */
struct FlowStats
{
    sim::StatGroup group;
    TcpSenderFlow::Totals totals{group};
};

/** Pull and commit every segment the windows currently allow. */
std::uint64_t
drain(TcpSenderFlow &f)
{
    std::uint64_t n = 0;
    while (auto seg = f.peekSegment()) {
        f.commitSegment(*seg);
        ++n;
    }
    return n;
}

} // namespace

// ------------------------------------------------------------ sender ----

TEST(TcpSender, SlowStartDoublesCwndPerAckedWindow)
{
    sim::SimContext ctx;
    FlowStats st;
    TcpSenderFlow f(ctx, nullptr, st.totals);
    f.setUnlimited();

    std::uint64_t initial = f.cwnd();
    EXPECT_EQ(initial, 10u * kSeg); // IW10
    EXPECT_EQ(drain(f), 10u);
    EXPECT_EQ(f.inFlight(), 10u * kSeg);

    // One ACK per segment: slow start grows cwnd by one MSS per ACK, so
    // a fully acknowledged window doubles it.
    for (std::uint64_t i = 1; i <= 10; ++i)
        f.onAck(i * kSeg);
    EXPECT_EQ(f.cwnd(), 2 * initial);
    EXPECT_EQ(f.inFlight(), 0u);
    EXPECT_EQ(st.totals.retransSegs.value(), 0u);
    EXPECT_FALSE(f.inRecovery());

    // The doubled window now admits 20 segments.
    EXPECT_EQ(drain(f), 20u);
}

TEST(TcpSender, ThreeDupAcksTriggerFastRetransmit)
{
    sim::SimContext ctx;
    FlowStats st;
    TcpSenderFlow f(ctx, nullptr, st.totals);
    f.setUnlimited();
    ASSERT_EQ(drain(f), 10u);

    f.onAck(kSeg); // segment 0 arrived; 1 is lost
    std::uint64_t flight = f.inFlight();
    f.onAck(kSeg);
    f.onAck(kSeg);
    EXPECT_EQ(st.totals.dupAcksRx.value(), 2u);
    EXPECT_FALSE(f.inRecovery());
    EXPECT_EQ(st.totals.fastRetransmits.value(), 0u);

    f.onAck(kSeg); // third duplicate
    EXPECT_TRUE(f.inRecovery());
    EXPECT_EQ(st.totals.fastRetransmits.value(), 1u);
    EXPECT_EQ(f.ssthresh(), flight / 2);
    EXPECT_EQ(f.cwnd(), f.ssthresh() + 3 * kSeg);

    // The retransmission is offered first, from snd_una.
    auto seg = f.peekSegment();
    ASSERT_TRUE(seg.has_value());
    EXPECT_TRUE(seg->rtx);
    EXPECT_EQ(seg->seq, kSeg);
    f.commitSegment(*seg);
    EXPECT_EQ(st.totals.retransSegs.value(), 1u);

    // A full ACK deflates cwnd to ssthresh and leaves recovery.
    std::uint64_t ssthresh = f.ssthresh();
    f.onAck(10 * kSeg);
    EXPECT_FALSE(f.inRecovery());
    EXPECT_EQ(f.cwnd(), ssthresh);

    // Above ssthresh we are in congestion avoidance: one full-MSS ACK
    // grows cwnd by MSS^2/cwnd, far less than a whole MSS.
    auto next = f.peekSegment();
    ASSERT_TRUE(next.has_value());
    f.commitSegment(*next);
    f.onAck(10 * kSeg + next->len);
    EXPECT_EQ(f.cwnd(), ssthresh + kSeg * kSeg / ssthresh);
}

TEST(TcpSender, RtoBackoffIsExponentialAndDeterministic)
{
    sim::SimContext ctx;
    // The on-ready hook retransmits whatever the window allows, the way
    // the owning endpoint's pump() would; the "network" never answers.
    FlowStats st;
    TcpSenderFlow *fp = nullptr;
    TcpSenderFlow f(
        ctx,
        [&] {
            while (auto s = fp->peekSegment())
                fp->commitSegment(*s);
        },
        st.totals);
    fp = &f;
    f.setUnlimited();
    std::vector<sim::Time> fires;
    f.setEventHook([&](const char *what) {
        if (std::string(what) == "rto")
            fires.push_back(ctx.now());
    });

    auto seg = f.peekSegment();
    ASSERT_TRUE(seg.has_value());
    f.commitSegment(*seg); // t = 0, never acknowledged

    ctx.events().runUntil(sim::milliseconds(200));

    // 3 ms initial RTO, doubling per expiry, clamped at 64 ms:
    // 3, +6, +12, +24, +48, +64 -> fires at 3, 9, 21, 45, 93, 157 ms.
    std::vector<sim::Time> expect = {
        sim::milliseconds(3),  sim::milliseconds(9),  sim::milliseconds(21),
        sim::milliseconds(45), sim::milliseconds(93), sim::milliseconds(157)};
    EXPECT_EQ(fires, expect);
    EXPECT_EQ(st.totals.rtoEvents.value(), 6u);
    // One go-back-N resend per expiry.
    EXPECT_EQ(st.totals.retransSegs.value(), 6u);
    EXPECT_EQ(f.rto(), TcpParams::maxRto);
    // cwnd stays collapsed at one MSS without a single ACK.
    EXPECT_EQ(f.cwnd(), kSeg);
}

TEST(TcpSender, OfferBoundedBySendBuffer)
{
    sim::SimContext ctx;
    FlowStats st;
    TcpSenderFlow f(ctx, nullptr, st.totals);
    const std::uint64_t window = TcpParams::windowBytes;
    EXPECT_EQ(f.offer(2 * window), window);
    EXPECT_EQ(f.offer(kSeg), 0u); // buffer full until ACKs free space
    EXPECT_EQ(drain(f), 10u);     // IW10 bounds the first flight
    f.onAck(3 * kSeg);
    EXPECT_EQ(f.takeFreed(), 3 * kSeg);
    EXPECT_EQ(f.offer(2 * window), 3 * kSeg);
}

// ---------------------------------------------------------- receiver ----

TEST(TcpReceiver, ReassemblesHolesAndDupAcks)
{
    sim::SimContext ctx;
    std::vector<std::uint64_t> acks;
    TcpReceiverFlow r(ctx, [&](std::uint64_t a) { acks.push_back(a); });

    EXPECT_EQ(r.onSegment(0, kSeg), kSeg);
    EXPECT_TRUE(acks.empty()); // first segment: ACK delayed
    EXPECT_EQ(r.onSegment(kSeg, kSeg), kSeg);
    ASSERT_EQ(acks.size(), 1u); // every second segment ACKs now
    EXPECT_EQ(acks.back(), 2 * kSeg);

    // A hole: buffered, immediate duplicate ACK at rcv_nxt.
    EXPECT_EQ(r.onSegment(3 * kSeg, kSeg), 0u);
    ASSERT_EQ(acks.size(), 2u);
    EXPECT_EQ(acks.back(), 2 * kSeg);

    // Filling the hole delivers both the fill and the buffered data.
    EXPECT_EQ(r.onSegment(2 * kSeg, kSeg), 2 * kSeg);
    EXPECT_EQ(r.rcvNxt(), 4 * kSeg);

    // Entirely old data is discarded but re-ACKed immediately.
    std::size_t before = acks.size();
    EXPECT_EQ(r.onSegment(0, kSeg), 0u);
    EXPECT_EQ(r.rcvNxt(), 4 * kSeg);
    ASSERT_EQ(acks.size(), before + 1);
    EXPECT_EQ(acks.back(), 4 * kSeg);
}

TEST(TcpReceiver, DelayedAckFiresOnTimeout)
{
    sim::SimContext ctx;
    std::vector<std::uint64_t> acks;
    TcpReceiverFlow r(ctx, [&](std::uint64_t a) { acks.push_back(a); });
    r.onSegment(0, kSeg);
    EXPECT_TRUE(acks.empty());
    ctx.events().runUntil(sim::milliseconds(1));
    ASSERT_EQ(acks.size(), 1u);
    EXPECT_EQ(acks[0], kSeg);
}

// ---------------------------------------------------------- endpoint ----

namespace {

/**
 * Two endpoints joined by a fixed-latency wire, with an optional
 * deterministic drop predicate on data segments (the loss model for
 * recovery tests).
 */
struct Loopback
{
    sim::SimContext ctx;
    TcpEndpoint a{ctx, "ep_a"};
    TcpEndpoint b{ctx, "ep_b"};
    MacAddr amac = MacAddr::fromId(1);
    MacAddr bmac = MacAddr::fromId(2);
    std::function<bool(const TcpEndpoint::SegmentOut &)> dropData;
    std::uint64_t remaining = 0;

    explicit Loopback(std::uint64_t total_bytes)
        : remaining(total_bytes)
    {
        a.setSegmentTx([this](const TcpEndpoint::SegmentOut &so) {
            if (dropData && dropData(so))
                return true; // "sent", lost on the wire
            Packet p;
            p.src = amac;
            p.dst = so.dst;
            p.flowId = so.flowId;
            p.seq = so.seq;
            p.payloadBytes = so.len;
            p.tcpData = true;
            ctx.events().schedule(sim::microseconds(10),
                                  [this, p] { b.onPacket(p); });
            return true;
        });
        b.setAckTx([this](const TcpEndpoint::AckOut &ao) {
            Packet p;
            p.src = bmac;
            p.dst = ao.dst;
            p.flowId = ao.flowId;
            p.ackNo = ao.ackNo;
            p.tcpAck = true;
            ctx.events().schedule(sim::microseconds(10),
                                  [this, p] { a.onPacket(p); });
            return true;
        });
        a.openSender(7, bmac);
        a.setBufFreed([this](std::uint64_t flow, std::uint64_t) {
            refill(flow);
        });
    }

    /** Kick the transfer off (after any drop predicate is installed). */
    void
    start()
    {
        refill(7);
    }

    void
    refill(std::uint64_t flow)
    {
        if (remaining > 0)
            remaining -= a.offer(flow, remaining);
    }
};

} // namespace

TEST(TcpEndpoint, LoopbackTransfersWholeStream)
{
    const std::uint64_t total = 1'000'000;
    Loopback l(total);
    l.start();
    l.ctx.events().run();
    EXPECT_EQ(l.b.deliveredBytes(), total);
    EXPECT_EQ(l.a.retransSegs(), 0u);
    EXPECT_EQ(l.a.rtoEvents(), 0u);
    EXPECT_EQ(l.a.senderFlow(7)->inFlight(), 0u);
    // Piecewise offers can split a handful of segments below the MSS,
    // so the count may slightly exceed ceil(total/MSS).
    EXPECT_GE(l.a.segsSent(), (total + kSeg - 1) / kSeg);
    EXPECT_LE(l.a.segsSent(), (total + kSeg - 1) / kSeg + 10);
}

TEST(TcpEndpoint, DelayedAckCountsInStats)
{
    // One segment leaves the delayed-ACK timer to send the ACK, after the
    // last packet and pump: the stat must count it all the same.
    sim::SimContext ctx;
    TcpEndpoint ep{ctx, "ep"};
    int wire_acks = 0;
    ep.setAckTx([&wire_acks](const TcpEndpoint::AckOut &) {
        ++wire_acks;
        return true;
    });
    Packet p;
    p.src = MacAddr::fromId(1);
    p.flowId = 3;
    p.payloadBytes = 1000;
    p.tcpData = true;
    ep.onPacket(p);
    ctx.events().run();
    EXPECT_EQ(wire_acks, 1);
    EXPECT_EQ(ep.stats().findCounter("acks_sent")->value(), 1u);
}

TEST(TcpEndpoint, RefusedAckLeavesBeforeLaterAcks)
{
    // The owner refuses an ACK while its device is full.  That ACK waits
    // for the next pump(); a later ACK queues behind it instead of
    // overtaking it, since the sender would read the older cumulative
    // ACK as a duplicate.  acks_sent counts an ACK when the owner takes
    // it, so one dropped by shutdown() was never sent.
    sim::SimContext ctx;
    TcpEndpoint ep{ctx, "ep"};
    bool full = true;
    std::vector<std::uint64_t> wire;
    ep.setAckTx([&](const TcpEndpoint::AckOut &ao) {
        if (full)
            return false;
        wire.push_back(ao.ackNo);
        return true;
    });
    auto acks_sent = [&ep] {
        return ep.stats().findCounter("acks_sent")->value();
    };
    Packet p;
    p.src = MacAddr::fromId(1);
    p.flowId = 3;
    p.payloadBytes = kSeg;
    p.tcpData = true;
    auto segment = [&](std::uint64_t i) {
        p.seq = i * kSeg;
        ep.onPacket(p);
    };

    segment(0);
    segment(1); // every second segment ACKs: 2 MSS, refused
    EXPECT_TRUE(wire.empty());
    EXPECT_EQ(acks_sent(), 0u);

    full = false;
    segment(2);
    segment(3); // ACK of 4 MSS queues behind the refused one
    ep.pump();
    EXPECT_EQ(wire, (std::vector<std::uint64_t>{2 * kSeg, 4 * kSeg}));
    EXPECT_EQ(acks_sent(), 2u);

    full = true;
    segment(4);
    segment(5); // ACK of 6 MSS, refused, then dropped by shutdown
    ep.shutdown();
    ctx.events().run();
    EXPECT_EQ(wire.size(), 2u);
    EXPECT_EQ(acks_sent(), 2u);
}

TEST(TcpEndpoint, StatCountersEqualTheFlowsCounts)
{
    const std::uint64_t total = 400'000;
    Loopback l(total);
    // Lose the first transmission of two segments: one fast retransmit,
    // and one tail loss that only the RTO recovers.  The predicate sees
    // every segment the flow sends, so it counts them as they leave.
    std::uint64_t sent = 0, resent = 0;
    l.dropData = [&](const TcpEndpoint::SegmentOut &so) {
        ++sent;
        resent += so.rtx;
        return !so.rtx && (so.seq == 20 * kSeg || so.seq + so.len == total);
    };
    l.start();
    l.ctx.events().run();
    ASSERT_EQ(l.b.deliveredBytes(), total);
    auto stat = [](const TcpEndpoint &ep, const char *name) {
        return ep.stats().findCounter(name)->value();
    };
    EXPECT_EQ(stat(l.a, "segs_sent"), sent);
    EXPECT_EQ(stat(l.a, "segs_retransmitted"), resent);
    EXPECT_GE(stat(l.a, "fast_retransmits"), 1u);
    EXPECT_GE(stat(l.a, "rto_events"), 1u);
    EXPECT_GE(stat(l.a, "dup_acks_received"), 3u);
    // The wire loses no ACK, so every ACK the receiver sent arrived.
    EXPECT_EQ(stat(l.b, "acks_sent"), stat(l.a, "acks_received"));
}

TEST(TcpEndpoint, SingleLossRecoversByFastRetransmit)
{
    const std::uint64_t total = 1'000'000;
    Loopback l(total);
    bool dropped = false;
    l.dropData = [&](const TcpEndpoint::SegmentOut &so) {
        if (!dropped && so.seq == 5 * kSeg) {
            dropped = true;
            return true;
        }
        return false;
    };
    l.start();
    l.ctx.events().run();
    EXPECT_TRUE(dropped);
    EXPECT_EQ(l.b.deliveredBytes(), total);
    EXPECT_EQ(l.a.fastRetransmits(), 1u);
    EXPECT_GE(l.a.retransSegs(), 1u);
    EXPECT_EQ(l.a.rtoEvents(), 0u);
}

TEST(TcpEndpoint, TailLossRecoversByRto)
{
    const std::uint64_t total = 100 * kSeg;
    Loopback l(total);
    bool dropped = false;
    l.dropData = [&](const TcpEndpoint::SegmentOut &so) {
        // Lose the final segment once: no later data means no duplicate
        // ACKs, so only the RTO timer can recover it.
        if (!dropped && so.seq + so.len == total) {
            dropped = true;
            return true;
        }
        return false;
    };
    l.start();
    l.ctx.events().run();
    EXPECT_TRUE(dropped);
    EXPECT_EQ(l.b.deliveredBytes(), total);
    EXPECT_GE(l.a.rtoEvents(), 1u);
    EXPECT_GE(l.a.retransSegs(), 1u);
}

// --------------------------------------------------------- eth + csum ----

TEST(TcpFrames, CorruptedFrameDeliveredWithIntactCleared)
{
    sim::SimContext ctx;
    sim::FaultRates rates;
    rates.frameCorrupt = 1.0;
    sim::FaultInjector fi(ctx, "faults", 1, rates);
    ctx.setFaultInjector(&fi);

    EthLink link(ctx, "eth");
    struct Sink : LinkEndpoint
    {
        std::vector<Packet> got;
        void receiveFrame(Packet p) override { got.push_back(std::move(p)); }
    } sink;
    link.bind(sink);
    Packet p;
    p.payloadBytes = kMss;
    ASSERT_TRUE(p.intact);
    link.port(1).send(std::move(p));
    ctx.events().run();
    // Corruption consumes wire and receiver resources: the frame is
    // delivered, flagged, and left for the receiver's checksum check.
    ASSERT_EQ(sink.got.size(), 1u);
    EXPECT_FALSE(sink.got[0].intact);
}

// ------------------------------------------------------- full system ----

namespace {

core::Report
runTcp(core::SystemConfig cfg, sim::Time warmup, sim::Time measure)
{
    core::System sys(std::move(cfg));
    return sys.run(warmup, measure);
}

} // namespace

TEST(TcpSystem, CleanWireSaturatesWithoutRetransmits)
{
    auto r = runTcp(core::SystemConfig::cdna(1).transport(core::kTcp),
                    sim::milliseconds(40), sim::milliseconds(120));
    EXPECT_GT(r.mbps, 1800.0);
    EXPECT_EQ(r.tcpRetransSegs, 0u);
    EXPECT_EQ(r.tcpRtoEvents, 0u);
    EXPECT_EQ(r.rxDropsBadCsum, 0u);
    EXPECT_NE(r.label.find("/tcp"), std::string::npos);
}

TEST(TcpSystem, ReceiveDirectionRunsClosedLoop)
{
    auto r = runTcp(
        core::SystemConfig::cdna(1).receive().transport(core::kTcp),
        sim::milliseconds(40), sim::milliseconds(120));
    EXPECT_GT(r.mbps, 1800.0);
    EXPECT_EQ(r.tcpRetransSegs, 0u);
}

TEST(TcpSystem, DeterministicAcrossRuns)
{
    auto cfg = core::SystemConfig::cdna(2).transport(core::kTcp).withFaults(
        core::FaultPlan{}.dropping(0.002));
    auto a = runTcp(cfg, sim::milliseconds(20), sim::milliseconds(80));
    auto b = runTcp(cfg, sim::milliseconds(20), sim::milliseconds(80));
    EXPECT_DOUBLE_EQ(a.mbps, b.mbps);
    EXPECT_EQ(a.tcpRetransSegs, b.tcpRetransSegs);
    EXPECT_EQ(a.tcpFastRetransmits, b.tcpFastRetransmits);
    EXPECT_EQ(a.tcpRtoEvents, b.tcpRtoEvents);
}

TEST(TcpSystem, GoodputNeverExceedsWireUnderEveryFaultKnob)
{
    // Cumulative accounting (no warmup): everything the application
    // counted as delivered must have crossed the wire first, whatever
    // the fault injector does to frames or DMA timing.
    struct Case
    {
        const char *name;
        core::FaultPlan plan;
    };
    std::vector<Case> cases = {
        {"drop", core::FaultPlan{}.dropping(0.005)},
        {"corrupt", core::FaultPlan{}.corrupting(0.005)},
        {"dup", core::FaultPlan{}.duplicating(0.005)},
        {"dma-delay", core::FaultPlan{}.delayingDma(0.01, 25.0)},
    };
    for (const auto &c : cases) {
        auto r = runTcp(core::SystemConfig::cdna(1)
                            .transport(core::kTcp)
                            .withFaults(c.plan),
                        0, sim::milliseconds(120));
        EXPECT_LE(r.mbps, r.wireMbps + 0.01) << c.name;
        EXPECT_GT(r.mbps, 0.0) << c.name;
    }
}

TEST(TcpSystem, DropsForceRetransmitsInBothArchitectures)
{
    for (auto make : {&core::SystemConfig::cdna, &core::SystemConfig::xenIntel}) {
        auto r = runTcp(make(1).transport(core::kTcp).withFaults(
                            core::FaultPlan{}.dropping(0.001)),
                        sim::milliseconds(20), sim::milliseconds(150));
        EXPECT_GT(r.tcpRetransSegs, 0u) << r.label;
        EXPECT_GT(r.tcpDupAcks, 0u) << r.label;
    }
}

TEST(TcpSystem, CorruptionDroppedAtChecksumAndRetransmitted)
{
    auto r = runTcp(core::SystemConfig::cdna(1).transport(core::kTcp)
                        .withFaults(core::FaultPlan{}.corrupting(0.002)),
                    sim::milliseconds(20), sim::milliseconds(150));
    EXPECT_GT(r.rxDropsBadCsum, 0u);
    EXPECT_GT(r.tcpRetransSegs, 0u);
    // Every corrupted frame is discarded at the receiver's checksum
    // check; the window edges can split a corruption from its drop.
    auto diff = static_cast<std::int64_t>(r.rxDropsBadCsum) -
                static_cast<std::int64_t>(r.faultFramesCorrupted);
    EXPECT_LE(std::abs(diff), 2);
}

TEST(TcpSystem, GoodputRecoversMonotonicallyAsLossFalls)
{
    double at1pct =
        runTcp(core::SystemConfig::cdna(1).transport(core::kTcp).withFaults(
                   core::FaultPlan{}.dropping(0.01)),
               sim::milliseconds(20), sim::milliseconds(150))
            .mbps;
    double at01pct =
        runTcp(core::SystemConfig::cdna(1).transport(core::kTcp).withFaults(
                   core::FaultPlan{}.dropping(0.001)),
               sim::milliseconds(20), sim::milliseconds(150))
            .mbps;
    double clean = runTcp(core::SystemConfig::cdna(1).transport(core::kTcp),
                          sim::milliseconds(20), sim::milliseconds(150))
                       .mbps;
    EXPECT_LT(at1pct, at01pct);
    EXPECT_LT(at01pct, clean);
}

// ------------------------------------------------- golden headline ----

namespace {

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

} // namespace

/**
 * The six paper headline configurations run open-loop by default; their
 * whole schema-7 report documents must stay byte-identical to the
 * goldens at the same seed.
 */
TEST(TcpGolden, HeadlineConfigsUnchangedWithTransportOff)
{
    struct Cfg
    {
        const char *file;
        core::SystemConfig cfg;
    };
    std::vector<Cfg> cfgs = {
        {"headline-xen-intel-tx.json", core::SystemConfig::xenIntel(1)},
        {"headline-xen-intel-rx.json",
         core::SystemConfig::xenIntel(1).receive()},
        {"headline-xen-rice-tx.json", core::SystemConfig::xenRice(1)},
        {"headline-xen-rice-rx.json",
         core::SystemConfig::xenRice(1).receive()},
        {"headline-cdna-rice-tx.json", core::SystemConfig::cdna(1)},
        {"headline-cdna-rice-rx.json", core::SystemConfig::cdna(1).receive()},
    };
    for (auto &c : cfgs) {
        std::string golden =
            readFile(std::string(CDNA_GOLDEN_DIR) + "/" + c.file);
        ASSERT_FALSE(golden.empty()) << c.file;
        core::System sys(c.cfg);
        auto r = sys.run(sim::milliseconds(50), sim::milliseconds(200));
        EXPECT_EQ(core::reportToJson(r), golden) << c.file;
    }
}
