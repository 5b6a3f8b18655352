/**
 * @file
 * Unit tests for the simulation kernel: time, event queue, RNG, stats.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/fifo.hh"
#include "sim/metrics_registry.hh"
#include "sim/rng.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"
#include "sim/time.hh"
#include "sim/trace.hh"

using namespace cdna::sim;

// ---------------------------------------------------------------- time ----

TEST(Time, UnitConversions)
{
    EXPECT_EQ(kNanosecond, 1000);
    EXPECT_EQ(kMicrosecond, 1000 * 1000);
    EXPECT_EQ(seconds(1.0), kSecond);
    EXPECT_EQ(milliseconds(2.5), 2500 * kMicrosecond);
    EXPECT_DOUBLE_EQ(toSeconds(kSecond), 1.0);
    EXPECT_DOUBLE_EQ(toMicroseconds(kMillisecond), 1000.0);
    EXPECT_DOUBLE_EQ(toNanoseconds(kMicrosecond), 1000.0);
}

TEST(Time, FractionalConstruction)
{
    EXPECT_EQ(nanoseconds(0.5), 500);
    EXPECT_EQ(microseconds(0.001), kNanosecond);
}

TEST(Time, FormatPicksSensibleUnit)
{
    EXPECT_NE(formatTime(seconds(2.0)).find(" s"), std::string::npos);
    EXPECT_NE(formatTime(milliseconds(3.0)).find("ms"), std::string::npos);
    EXPECT_NE(formatTime(microseconds(3.0)).find("us"), std::string::npos);
    EXPECT_NE(formatTime(nanoseconds(3.0)).find("ns"), std::string::npos);
    EXPECT_NE(formatTime(1).find("ps"), std::string::npos);
    EXPECT_EQ(formatTime(-kSecond)[0], '-');
}

// --------------------------------------------------------- event queue ----

TEST(EventQueue, DispatchesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30);
}

TEST(EventQueue, EqualTimesFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 16; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsDispatch)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(10, [&] { fired = true; });
    EXPECT_TRUE(eq.cancel(id));
    EXPECT_FALSE(eq.cancel(id)); // second cancel fails
    eq.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueue, RunUntilAdvancesClockToHorizon)
{
    EventQueue eq;
    int count = 0;
    eq.schedule(10, [&] { ++count; });
    eq.schedule(100, [&] { ++count; });
    EXPECT_EQ(eq.runUntil(50), 1u);
    EXPECT_EQ(eq.now(), 50);
    EXPECT_EQ(count, 1);
    EXPECT_EQ(eq.runUntil(100), 1u);
    EXPECT_EQ(count, 2);
}

TEST(EventQueue, EventsScheduleMoreEvents)
{
    EventQueue eq;
    int depth = 0;
    std::function<void()> chain = [&] {
        if (++depth < 10)
            eq.schedule(1, chain);
    };
    eq.schedule(1, chain);
    eq.run();
    EXPECT_EQ(depth, 10);
    EXPECT_EQ(eq.now(), 10);
}

TEST(EventQueue, PendingCountTracksLiveEvents)
{
    EventQueue eq;
    EventId a = eq.schedule(5, [] {});
    eq.schedule(6, [] {});
    EXPECT_EQ(eq.pendingCount(), 2u);
    eq.cancel(a);
    EXPECT_EQ(eq.pendingCount(), 1u);
    eq.run();
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, NextEventTimeSkipsCancelled)
{
    EventQueue eq;
    EventId a = eq.schedule(5, [] {});
    eq.schedule(9, [] {});
    eq.cancel(a);
    EXPECT_EQ(eq.nextEventTime(), 9);
}

TEST(EventQueue, NextEventTimeEmptyIsMax)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextEventTime(), std::numeric_limits<Time>::max());
}

TEST(EventQueue, RunOneReturnsFalseWhenEmpty)
{
    EventQueue eq;
    EXPECT_FALSE(eq.runOne());
}

TEST(EventQueue, DispatchedCountAccumulates)
{
    EventQueue eq;
    for (int i = 0; i < 7; ++i)
        eq.schedule(i, [] {});
    eq.run();
    EXPECT_EQ(eq.dispatchedCount(), 7u);
}

TEST(EventQueue, CancelAfterDispatchFails)
{
    EventQueue eq;
    bool fired = false;
    EventId id = eq.schedule(10, [&] { fired = true; });
    eq.run();
    EXPECT_TRUE(fired);
    EXPECT_FALSE(eq.cancel(id));
}

TEST(EventQueue, RunUntilOnEmptyQueueAdvancesClock)
{
    EventQueue eq;
    EXPECT_EQ(eq.runUntil(77), 0u);
    EXPECT_EQ(eq.now(), 77);
    // The horizon never moves the clock backwards.
    EXPECT_EQ(eq.runUntil(50), 0u);
    EXPECT_EQ(eq.now(), 77);
}

TEST(EventQueue, CancelledEventStillCountsTowardNothing)
{
    EventQueue eq;
    EventId id = eq.schedule(5, [] {});
    eq.cancel(id);
    eq.run();
    EXPECT_EQ(eq.dispatchedCount(), 0u);
}

// ------------------------------------------------------------------ rng ----

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.below(17), 17u);
    EXPECT_EQ(r.below(0), 0u);
    EXPECT_EQ(r.below(1), 0u);
}

TEST(Rng, RangeInclusive)
{
    Rng r(9);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.range(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng r(11);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean)
{
    Rng r(13);
    double sum = 0;
    for (int i = 0; i < 20000; ++i)
        sum += r.exponential(5.0);
    EXPECT_NEAR(sum / 20000.0, 5.0, 0.25);
}

TEST(Rng, ForkIndependence)
{
    Rng a(3);
    Rng child = a.fork();
    // The child stream must not mirror the parent stream.
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == child.next())
            ++same;
    EXPECT_LT(same, 2);
}

// ---------------------------------------------------------------- stats ----

TEST(Stats, CounterBasics)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(9);
    EXPECT_EQ(c.value(), 10u);
}

TEST(Stats, HistogramQuantiles)
{
    Histogram h;
    for (std::uint64_t i = 0; i < 1000; ++i)
        h.record(i);
    EXPECT_EQ(h.count(), 1000u);
    // Median of [0,1000) lies in the 512-1023 bucket.
    EXPECT_GE(h.quantile(0.5), 511u);
    EXPECT_LE(h.quantile(0.99), 1023u);
    EXPECT_EQ(h.quantile(0.0), 0u);
}

TEST(Stats, HistogramQuantileFullRange)
{
    Histogram h;
    for (std::uint64_t i = 0; i < 1000; ++i)
        h.record(i);
    // Values 0..511 fill buckets 0..9 (512 of 1000 samples), so the
    // median is the upper bound of bucket 9.
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 511u);
    EXPECT_EQ(h.quantile(0.99), 1023u);
    // Regression: q = 1.0 used to fall off the bucket loop and return
    // UINT64_MAX; it must be the top occupied bucket's upper bound.
    EXPECT_EQ(h.quantile(1.0), 1023u);
}

TEST(Stats, HistogramQuantileClampsMalformedInput)
{
    Histogram h;
    h.record(5); // bucket 3, upper bound 7
    EXPECT_EQ(h.quantile(-0.5), 7u);
    EXPECT_EQ(h.quantile(2.0), 7u);
    EXPECT_EQ(h.quantile(std::nan("")), 7u);
}

TEST(Stats, HistogramEmptyQuantileIsZero)
{
    Histogram h;
    EXPECT_EQ(h.quantile(0.0), 0u);
    EXPECT_EQ(h.quantile(0.5), 0u);
    EXPECT_EQ(h.quantile(1.0), 0u);
}

TEST(Stats, StatGroupFindByName)
{
    StatGroup g;
    Counter c{g, "hits"};
    c.inc(4);
    ASSERT_EQ(g.findCounter("hits"), &c);
    EXPECT_EQ(g.findCounter("hits")->value(), 4u);
    EXPECT_EQ(g.findCounter("misses"), nullptr);
}

TEST(Stats, StatGroupListsCountersInRegistrationOrder)
{
    // Declared counters register as they are constructed; a computed
    // name registers with add().
    StatGroup g;
    Counter b{g, "b"};
    Counter later;
    Counter a{g, "a"};
    g.add("p0_later", later);
    ASSERT_EQ(g.counters().size(), 3u);
    EXPECT_EQ(g.counters()[0].first, "b");
    EXPECT_EQ(g.counters()[1].first, "a");
    EXPECT_EQ(g.counters()[2].first, "p0_later");
    EXPECT_EQ(g.counters()[2].second, &later);
}

TEST(StatsDeathTest, StatGroupDuplicateNamePanics)
{
    StatGroup g;
    Counter n{g, "n"};
    Counter other;
    EXPECT_DEATH(Counter again(g, "n"), "assertion failed");
    EXPECT_DEATH(g.add("n", other), "assertion failed");
}

// ----------------------------------------------------------- sim object ----

TEST(SimObject, RegistersWithContext)
{
    SimContext ctx(5);

    class Widget : public SimObject
    {
      public:
        explicit Widget(SimContext &c) : SimObject(c, "widget") {}
    };

    Widget w(ctx);
    ASSERT_EQ(ctx.objects().size(), 1u);
    EXPECT_EQ(ctx.objects()[0]->name(), "widget");
    Counter counter{w.stats(), "n"};
    counter.inc(2);
    const Counter *n = ctx.objects()[0]->stats().findCounter("n");
    ASSERT_NE(n, nullptr);
    EXPECT_EQ(n->value(), 2u);
}

TEST(SimObject, NowTracksEventQueue)
{
    SimContext ctx;
    ctx.events().schedule(100, [] {});
    ctx.events().run();
    EXPECT_EQ(ctx.now(), 100);
}

// --------------------------------------------------------------- tracer ----

TEST(Tracer, DisabledByDefaultAndLanesIntern)
{
    Tracer t;
    Tracer::LaneId a = t.lane("cpu0");
    Tracer::LaneId b = t.lane("nic0");
    EXPECT_FALSE(t.enabled());
    EXPECT_FALSE(t.wants(a));
    EXPECT_EQ(t.lane("cpu0"), a); // idempotent
    EXPECT_NE(a, b);
    EXPECT_EQ(t.laneCount(), 2u);
    EXPECT_EQ(t.laneName(b), "nic0");
    // Macros record nothing while disabled (and skip arg evaluation).
    int evals = 0;
    CDNA_TRACE_SPAN(t, a, "x", (++evals, 0), 10);
    EXPECT_EQ(evals, 0);
    EXPECT_EQ(t.eventCount(), 0u);
}

TEST(Tracer, RecordsSpansInstantsAndCounters)
{
    Tracer t;
    Tracer::LaneId cpu = t.lane("cpu0");
    t.enable();
    EXPECT_TRUE(t.wants(cpu));
    t.span(cpu, "task", 100, 50, "bytes", 4096);
    t.instant(cpu, "irq", 160);
    t.counter(cpu, "occupancy", 170, 3.0);
    EXPECT_EQ(t.eventCount(), 3u);
    std::string json = t.toChromeJson();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"task\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
    EXPECT_NE(json.find("\"bytes\":4096"), std::string::npos);
}

TEST(Tracer, FilterSelectsLanesBySubstring)
{
    Tracer t;
    Tracer::LaneId cpu = t.lane("cpu0");
    Tracer::LaneId nic = t.lane("cdna0.fw");
    t.enable();
    t.setFilter("cdna,hypervisor");
    EXPECT_FALSE(t.wants(cpu));
    EXPECT_TRUE(t.wants(nic));
    // Lanes interned after the filter is set are matched too.
    Tracer::LaneId hv = t.lane("hypervisor");
    EXPECT_TRUE(t.wants(hv));
    // Clearing the filter re-admits everything.
    t.setFilter("");
    EXPECT_TRUE(t.wants(cpu));
}

TEST(Tracer, RingBufferWrapsAndCountsDrops)
{
    Tracer t;
    Tracer::LaneId cpu = t.lane("cpu0");
    t.enable(/*capacity=*/4);
    for (int i = 0; i < 6; ++i)
        t.span(cpu, "e", i * 10, 5);
    EXPECT_EQ(t.eventCount(), 4u);
    EXPECT_EQ(t.droppedCount(), 2u);
    // Oldest two events were overwritten; ts is exported in us.
    std::string json = t.toChromeJson();
    EXPECT_EQ(json.find("\"ts\":0.000000"), std::string::npos); // t=0 gone
    EXPECT_EQ(json.find("\"ts\":0.000010"), std::string::npos); // t=10ps gone
    EXPECT_NE(json.find("\"ts\":0.000020"), std::string::npos); // t=20ps kept
    EXPECT_NE(json.find("\"ts\":0.000050"), std::string::npos); // t=50ps kept
}

TEST(Tracer, ClearKeepsLanesAndFilter)
{
    Tracer t;
    Tracer::LaneId cpu = t.lane("cpu0");
    t.enable();
    t.span(cpu, "e", 0, 1);
    t.clear();
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(t.laneCount(), 1u);
    EXPECT_TRUE(t.wants(cpu));
}

// ----------------------------------------------------- metrics registry ----

TEST(MetricsRegistry, PeriodicSamplingRecordsSeries)
{
    SimContext ctx;
    MetricsRegistry m(ctx);
    double value = 1.0;
    m.addGauge("test.gauge", [&] { return value; });
    EXPECT_EQ(m.gaugeCount(), 1u);
    m.startSampling(10);
    EXPECT_TRUE(m.sampling());
    ctx.events().schedule(15, [&] { value = 2.0; });
    ctx.events().runUntil(35);
    const auto &pts = m.series("test.gauge");
    ASSERT_EQ(pts.size(), 3u);
    EXPECT_EQ(pts[0], (std::pair<Time, double>{10, 1.0}));
    EXPECT_EQ(pts[1], (std::pair<Time, double>{20, 2.0}));
    EXPECT_EQ(pts[2], (std::pair<Time, double>{30, 2.0}));
    m.stopSampling();
    ctx.events().runUntil(100);
    EXPECT_EQ(pts.size(), 3u);
    EXPECT_FALSE(m.sampling());
}

TEST(MetricsRegistry, JsonFederatesComponentStats)
{
    SimContext ctx;

    class Widget : public SimObject
    {
      public:
        explicit Widget(SimContext &c) : SimObject(c, "widget")
        {
            hits_.inc(7);
        }

        Counter hits_{stats(), "hits"};
    };

    Widget w(ctx);
    MetricsRegistry m(ctx);
    m.addGauge("g", [] { return 1.5; });
    m.sampleOnce();
    std::string json = m.toJson();
    EXPECT_NE(json.find("\"widget\""), std::string::npos);
    EXPECT_NE(json.find("\"hits\": 7"), std::string::npos);
    EXPECT_EQ(json.find("\"samples\""), std::string::npos);
    EXPECT_NE(json.find("\"timeseries\""), std::string::npos);
    EXPECT_NE(json.find("\"g\": [[0, 1.5]"), std::string::npos);
}

namespace {

/** A check of the JSON grammar (RFC 8259; numbers loosely). */
struct JsonCheck
{
    const std::string &s;
    std::size_t i = 0;

    void
    ws()
    {
        while (i < s.size() &&
               (s[i] == ' ' || s[i] == '\n' || s[i] == '\r' || s[i] == '\t'))
            ++i;
    }

    bool
    eat(char c)
    {
        ws();
        if (i == s.size() || s[i] != c)
            return false;
        ++i;
        return true;
    }

    bool
    string()
    {
        if (!eat('"'))
            return false;
        while (i < s.size()) {
            const auto c = static_cast<unsigned char>(s[i++]);
            if (c == '"')
                return true;
            if (c < 0x20)
                return false; // control characters must be escaped
            if (c != '\\')
                continue;
            if (i == s.size())
                return false;
            const char e = s[i++];
            if (e == 'u') {
                for (int k = 0; k < 4; ++k)
                    if (i == s.size() ||
                        !std::isxdigit(static_cast<unsigned char>(s[i++])))
                        return false;
            } else if (std::string_view("\"\\/bfnrt").find(e) ==
                       std::string_view::npos) {
                return false;
            }
        }
        return false;
    }

    bool
    value()
    {
        ws();
        if (i < s.size() && s[i] == '"')
            return string();
        if (eat('{')) {
            if (eat('}'))
                return true;
            do {
                if (!string() || !eat(':') || !value())
                    return false;
            } while (eat(','));
            return eat('}');
        }
        if (eat('[')) {
            if (eat(']'))
                return true;
            do {
                if (!value())
                    return false;
            } while (eat(','));
            return eat(']');
        }
        for (std::string_view lit : {"true", "false", "null"}) {
            if (s.compare(i, lit.size(), lit) == 0) {
                i += lit.size();
                return true;
            }
        }
        const std::size_t start = i;
        while (i < s.size() &&
               std::string_view("+-.0123456789eE").find(s[i]) !=
                   std::string_view::npos)
            ++i;
        return i > start;
    }

    bool
    document()
    {
        if (!value())
            return false;
        ws();
        return i == s.size();
    }
};

} // namespace

TEST(MetricsRegistry, ControlCharactersInNamesStayValidJson)
{
    SimContext ctx;

    class Widget : public SimObject
    {
      public:
        explicit Widget(SimContext &c) : SimObject(c, "wid\tget")
        {
            hits_.inc(7);
        }

        Counter hits_{stats(), "hits\n"};
    };

    Widget w(ctx);
    MetricsRegistry m(ctx);
    m.addGauge("g\x01", [] { return 1.5; });
    m.sampleOnce();
    std::string json = m.toJson();
    EXPECT_TRUE(JsonCheck{json}.document()) << json;
    EXPECT_NE(json.find("\"wid\\tget\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"hits\\n\": 7"), std::string::npos) << json;
    EXPECT_NE(json.find("\"g\\u0001\""), std::string::npos) << json;
}

TEST(MetricsRegistry, UnknownSeriesIsEmpty)
{
    SimContext ctx;
    MetricsRegistry m(ctx);
    EXPECT_TRUE(m.series("nope").empty());
}

// ---------------------------------------------------------------- fifo ----

namespace {

/** The elements of @p q, front to back, through its iterators. */
template <typename T>
std::vector<T>
contents(const Fifo<T> &q)
{
    return std::vector<T>(q.begin(), q.end());
}

} // namespace

TEST(Fifo, WrapsAroundWithoutGrowing)
{
    Fifo<int> q;
    for (int i = 0; i < 8; ++i)
        q.push_back(i);
    const int *first = &q.front();
    // Pop and push past the end of the storage many times over.
    for (int i = 8; i < 100; ++i) {
        EXPECT_EQ(q.front(), i - 8);
        q.pop_front();
        q.push_back(i);
        EXPECT_EQ(q.back(), i);
        EXPECT_EQ(q.size(), 8u);
    }
    EXPECT_EQ(contents(q), (std::vector<int>{92, 93, 94, 95, 96, 97, 98, 99}));
    // Eight elements fit the first storage: it never moved.
    std::vector<const int *> slots;
    for (const int &v : q)
        slots.push_back(&v);
    EXPECT_TRUE(std::find(slots.begin(), slots.end(), first) != slots.end());
}

TEST(Fifo, GrowsWhileHeadIsMidRing)
{
    Fifo<std::string> q;
    for (int i = 0; i < 8; ++i)
        q.push_back(std::to_string(i));
    for (int i = 0; i < 5; ++i)
        q.pop_front(); // head at slot 5 of 8
    for (int i = 8; i < 13; ++i)
        q.push_back(std::to_string(i)); // wraps, full at 8
    ASSERT_EQ(q.size(), 8u);
    q.push_back("13"); // grows with the front in the middle
    q.push_back("14");
    std::vector<std::string> want;
    for (int i = 5; i < 15; ++i)
        want.push_back(std::to_string(i));
    EXPECT_EQ(contents(q), want);
    for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(q[i], want[i]);
    EXPECT_EQ(q.front(), "5");
    EXPECT_EQ(q.back(), "14");
}

TEST(Fifo, EmplaceFromOwnElementWhileGrowing)
{
    Fifo<std::string> q;
    for (int i = 0; i < 8; ++i)
        q.push_back(std::string(40, static_cast<char>('a' + i)));
    q.push_back(q.front()); // full: the copy is made before storage moves
    EXPECT_EQ(q.size(), 9u);
    EXPECT_EQ(q.back(), std::string(40, 'a'));
}

TEST(Fifo, HoldsMoveOnlyCallbacks)
{
    Fifo<InplaceCallback> q;
    std::vector<int> ran;
    auto owned = std::make_unique<int>(7);
    for (int i = 0; i < 20; ++i)
        q.push_back([&ran, i] { ran.push_back(i); });
    q.push_back([&ran, p = std::move(owned)] { ran.push_back(*p); });
    Fifo<InplaceCallback> moved = std::move(q);
    EXPECT_TRUE(q.empty());
    while (!moved.empty()) {
        InplaceCallback cb = std::move(moved.front());
        moved.pop_front();
        cb();
    }
    std::vector<int> want;
    for (int i = 0; i < 20; ++i)
        want.push_back(i);
    want.push_back(7);
    EXPECT_EQ(ran, want);
}

TEST(Fifo, ClearDestroysAndKeepsStorageForReuse)
{
    auto token = std::make_shared<int>(0);
    Fifo<std::shared_ptr<int>> q;
    for (int i = 0; i < 6; ++i)
        q.push_back(token);
    q.pop_front();
    EXPECT_EQ(token.use_count(), 6);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(token.use_count(), 1); // every element destroyed
    for (int i = 0; i < 8; ++i)
        q.push_back(std::make_shared<int>(i));
    std::vector<int> got;
    for (const auto &p : q)
        got.push_back(*p);
    EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
    q.pop_back();
    EXPECT_EQ(*q.back(), 6);
}

TEST(Fifo, IteratesFrontToBack)
{
    Fifo<int> q;
    EXPECT_TRUE(q.begin() == q.end());
    for (int i = 0; i < 30; ++i) {
        q.push_back(i);
        if (i % 3 == 0)
            q.pop_front();
    }
    std::vector<int> want;
    for (int i = 10; i < 30; ++i)
        want.push_back(i);
    EXPECT_EQ(contents(q), want);
    int sum = 0;
    for (int &v : q)
        sum += v++;
    EXPECT_EQ(sum, (10 + 29) * 20 / 2);
    EXPECT_EQ(q.front(), 11); // iterators give mutable access
}
