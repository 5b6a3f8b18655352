/**
 * @file
 * Tests for the sweep subsystem and the event-queue hot path it runs
 * on: the pooled/generation-tagged EventQueue, the shared-index
 * parallelFor, ExperimentSpec expansion, seed-ensemble statistics, and
 * the determinism contract (-j1 == -jN == standalone run,
 * byte-for-byte).
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iomanip>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/report.hh"
#include "core/system.hh"
#include "sim/event_queue.hh"
#include "sim/sweep.hh"
#include "sim/sweep_presets.hh"
#include "sim/thread_pool.hh"

namespace cdna {
namespace {

// --- EventQueue: pooled nodes, generations, cancellation ----------------

TEST(EventQueuePool, FifoAtEqualTimestamps)
{
    sim::EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i)
        q.schedule(100, [&order, i] { order.push_back(i); });
    q.run();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueuePool, CancelIsIdempotent)
{
    sim::EventQueue q;
    bool fired = false;
    auto id = q.schedule(10, [&fired] { fired = true; });
    EXPECT_EQ(q.pendingCount(), 1u);
    EXPECT_TRUE(q.cancel(id));
    EXPECT_FALSE(q.cancel(id)); // second cancel of the same handle
    EXPECT_TRUE(q.empty());
    q.run();
    EXPECT_FALSE(fired);
}

TEST(EventQueuePool, CancelAfterFireFails)
{
    sim::EventQueue q;
    auto id = q.schedule(10, [] {});
    EXPECT_TRUE(q.runOne());
    EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueuePool, StaleHandleCannotCancelSlotReuse)
{
    sim::EventQueue q;
    // Fire an event, freeing its pool slot.
    auto stale = q.schedule(10, [] {});
    q.run();
    // The next schedule reuses that slot with a bumped generation.
    bool fired = false;
    auto fresh = q.schedule(10, [&fired] { fired = true; });
    EXPECT_NE(stale, fresh);
    EXPECT_FALSE(q.cancel(stale)); // must not kill the new event
    q.run();
    EXPECT_TRUE(fired);
}

TEST(EventQueuePool, CancelledSlotReusedForLaterEvent)
{
    sim::EventQueue q;
    int fired = 0;
    auto a = q.schedule(50, [&fired] { ++fired; });
    EXPECT_TRUE(q.cancel(a));
    // Heavy churn across the freed slot: every handle must stay distinct
    // and every live event must fire exactly once.
    std::set<sim::EventId> ids;
    for (int i = 0; i < 100; ++i)
        ids.insert(q.schedule(10 + i, [&fired] { ++fired; }));
    EXPECT_EQ(ids.size(), 100u);
    EXPECT_EQ(ids.count(a), 0u);
    q.run();
    EXPECT_EQ(fired, 100);
}

TEST(EventQueuePool, NextEventTimeSkipsNothingAfterCancel)
{
    sim::EventQueue q;
    auto early = q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(q.nextEventTime(), 10);
    EXPECT_TRUE(q.cancel(early));
    // Cancellation removes the node immediately -- no tombstone at top.
    EXPECT_EQ(q.nextEventTime(), 20);
    EXPECT_EQ(q.pendingCount(), 1u);
}

TEST(EventQueuePool, LargeCaptureFallsBackToHeap)
{
    sim::EventQueue q;
    struct Big
    {
        char pad[96];
    } big{};
    big.pad[0] = 7;
    big.pad[95] = 9;
    int sum = 0;
    static_assert(sizeof(Big) > sim::InplaceCallback::kInlineSize);
    q.schedule(5, [big, &sum] { sum = big.pad[0] + big.pad[95]; });
    q.run();
    EXPECT_EQ(sum, 16);
}

TEST(EventQueuePool, RescheduleFromCallbackKeepsOrdering)
{
    sim::EventQueue q;
    std::vector<sim::Time> times;
    std::function<void()> tick = [&] {
        times.push_back(q.now());
        if (times.size() < 5)
            q.schedule(100, tick);
    };
    q.schedule(0, tick);
    q.run();
    ASSERT_EQ(times.size(), 5u);
    for (std::size_t i = 0; i < times.size(); ++i)
        EXPECT_EQ(times[i], static_cast<sim::Time>(100 * i));
}

TEST(EventQueuePool, ReservedSeqKeepsItsFifoPlace)
{
    sim::EventQueue q;
    std::vector<int> order;
    // Reserved at t=0, ahead of two later schedules at the same time:
    // the deferred event dispatches first, as if scheduled at once.
    std::uint64_t seq = q.reserveSeq();
    q.scheduleAt(10, [&order] { order.push_back(1); });
    q.scheduleAt(10, [&order] { order.push_back(2); });
    q.scheduleAt(10, seq, [&order] { order.push_back(0); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

/**
 * Drives an EventQueue with random operations and checks it against a
 * reference, an ordered map of the pending (when, seq) keys: every
 * dispatch must be the reference's smallest key, and pendingCount()
 * its size after every operation.  Callbacks run operations too, so
 * events are scheduled, armed and cancelled from inside dispatch, and
 * each callback tries to cancel itself.
 */
class QueueVsReference
{
  public:
    explicit QueueVsReference(std::uint64_t seed) : rng_(seed) {}

    /**
     * One random operation: schedule, reserve a sequence number, arm a
     * reserved one, or cancel any event ever scheduled.  It adds half an
     * event on average, so a queue whose callbacks run one operation
     * each still drains.
     */
    void
    op()
    {
        switch (pick(8)) {
        case 0:
        case 1:
        case 2:
            add(pickTime(), nextSeq_++, false);
            break;
        case 3:
            EXPECT_EQ(q_.reserveSeq(), nextSeq_);
            reserved_.push_back(nextSeq_++);
            break;
        case 4:
            if (!reserved_.empty()) {
                std::size_t i = pick(reserved_.size());
                std::uint64_t seq = reserved_[i];
                reserved_.erase(reserved_.begin() + i);
                add(pickTime(), seq, true);
            }
            break;
        default:
            if (!events_.empty())
                cancel(pick(events_.size()));
            break;
        }
        ASSERT_EQ(q_.pendingCount(), pending_.size());
        peak_ = std::max(peak_, pending_.size());
    }

    /** Schedule 40 events at once: the heap grows deep, the pool by chunks. */
    void
    burst()
    {
        for (int i = 0; i < 40; ++i)
            add(pickTime(), nextSeq_++, false);
        ASSERT_EQ(q_.pendingCount(), pending_.size());
        peak_ = std::max(peak_, pending_.size());
    }

    /** Dispatch one event; it must be the reference's smallest key. */
    void
    dispatch()
    {
        ASSERT_FALSE(pending_.empty());
        auto top = pending_.begin();
        const std::size_t want = top->second;
        const sim::Time when = top->first.first;
        pending_.erase(top);
        ASSERT_TRUE(q_.runOne());
        ASSERT_FALSE(dispatched_.empty());
        ASSERT_EQ(dispatched_.back(), want);
        ASSERT_EQ(q_.now(), when);
        ASSERT_EQ(q_.pendingCount(), pending_.size());
    }

    std::size_t pending() const { return pending_.size(); }
    std::size_t peak() const { return peak_; }
    std::size_t dispatchedCount() const { return dispatched_.size(); }

  private:
    using Key = std::pair<sim::Time, std::uint64_t>;

    std::size_t pick(std::size_t n) { return rng_() % n; }

    /** Mostly a few ps ahead, so equal times (FIFO ties) are common. */
    sim::Time
    pickTime()
    {
        return q_.now() + static_cast<sim::Time>(pick(2) ? pick(3)
                                                         : pick(500));
    }

    void
    add(sim::Time when, std::uint64_t seq, bool reserved)
    {
        const std::size_t label = events_.size();
        auto fn = [this, label] {
            dispatched_.push_back(label);
            if (pick(4) == 0)
                cancel(label); // the running event: must fail
            for (std::size_t n = pick(3); n > 0; --n)
                op();
        };
        sim::EventId id;
        if (reserved)
            id = q_.scheduleAt(when, seq, fn);
        else if (pick(2))
            id = q_.schedule(when - q_.now(), fn);
        else
            id = q_.scheduleAt(when, fn);
        events_.push_back({id, Key{when, seq}});
        pending_.emplace(Key{when, seq}, label);
    }

    /** Cancel event @p label, pending or not; only pending succeeds. */
    void
    cancel(std::size_t label)
    {
        const auto [id, key] = events_[label];
        auto it = pending_.find(key);
        const bool live = it != pending_.end();
        EXPECT_EQ(q_.cancel(id), live) << "event " << label;
        if (live)
            pending_.erase(it);
    }

    sim::EventQueue q_;
    std::mt19937_64 rng_;
    std::map<Key, std::size_t> pending_; //!< the reference
    std::vector<std::pair<sim::EventId, Key>> events_; //!< by label
    std::vector<std::uint64_t> reserved_; //!< reserved, not yet armed
    std::uint64_t nextSeq_ = 1;           //!< the queue's next seq
    std::vector<std::size_t> dispatched_;
    std::size_t peak_ = 0;
};

TEST(EventQueuePool, MatchesOrderedReferenceUnderRandomOps)
{
    for (std::uint64_t seed : {1, 2, 3}) {
        SCOPED_TRACE(seed);
        QueueVsReference t(seed);
        std::mt19937_64 driver(seed);
        // Grow the queue, then let it drain.
        for (int step = 0; step < 6000; ++step) {
            const auto r = driver() % 20;
            if (r == 0)
                t.burst();
            else if (r < 10 || t.pending() == 0)
                t.op();
            else
                t.dispatch();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        while (t.pending() > 0) {
            if (driver() % 5 == 0)
                t.op();
            else
                t.dispatch();
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_GT(t.peak(), sim::EventQueue::kChunkNodes);
        EXPECT_GT(t.dispatchedCount(), 10000u);
    }
}

TEST(EventQueuePool, CallbackKeepsCapturesWhilePoolGrows)
{
    // The running callback grows the pool by several chunks; it runs in
    // its node, so its captures must stay where they are (reading a
    // freed node trips ASan; a moved-from capture fails `intact`).
    sim::EventQueue q;
    constexpr std::uint32_t kMore = 3 * sim::EventQueue::kChunkNodes;
    std::uint32_t fired = 0;
    bool intact = false;
    q.schedule(1, [&q, &fired, &intact, v = std::vector<int>(100, 42)] {
        for (std::uint32_t i = 0; i < kMore; ++i)
            q.schedule(1, [&fired] { ++fired; });
        intact = v == std::vector<int>(100, 42);
    });
    q.run();
    EXPECT_TRUE(intact);
    EXPECT_EQ(fired, kMore);
}

TEST(EventQueuePool, ThrowingCallbackLeavesLaterEventsInOrder)
{
    sim::EventQueue q;
    std::vector<int> order;
    auto token = std::make_shared<int>(0); // counts live closures
    for (int i = 0; i < 6; ++i)
        q.schedule(10 * (1 + i / 2), [&order, i, token] {
            order.push_back(i);
            if (i == 2)
                throw std::runtime_error("callback failed");
        });
    EXPECT_THROW(q.run(), std::runtime_error);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(q.now(), 20);
    EXPECT_EQ(q.pendingCount(), 3u);
    EXPECT_EQ(token.use_count(), 1 + 3); // the thrower's closure is gone
    // Due at the thrower's time, so after event 3, already due then.
    q.schedule(0, [&order] { order.push_back(6); });
    q.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 6, 4, 5}));
    EXPECT_EQ(token.use_count(), 1);
}

TEST(EventQueuePoolDeathTest, UnreservedSeqPanics)
{
    sim::EventQueue q;
    // The number after the last one handed out was never reserved.
    std::uint64_t unreserved = q.reserveSeq() + 1;
    EXPECT_DEATH(q.scheduleAt(10, unreserved, [] {}), "assertion failed");
}

// --- parallelFor --------------------------------------------------------

TEST(ParallelFor, VisitsEveryIndexExactlyOnce)
{
    constexpr std::size_t kN = 503;
    std::vector<std::atomic<int>> hits(kN);
    sim::parallelFor(4, kN, [&hits](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, InlineWhenSingleThread)
{
    std::vector<std::size_t> order;
    sim::parallelFor(1, 5, [&order](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, PropagatesTaskException)
{
    EXPECT_THROW(sim::parallelFor(3, 16,
                                  [](std::size_t i) {
                                      if (i == 7)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);
}

// --- MetricStats --------------------------------------------------------

TEST(MetricStats, SingleSampleHasNoSpread)
{
    auto s = sim::MetricStats::of({42.0});
    EXPECT_DOUBLE_EQ(s.mean, 42.0);
    EXPECT_DOUBLE_EQ(s.stddev, 0.0);
    EXPECT_DOUBLE_EQ(s.ci95, 0.0);
}

TEST(MetricStats, KnownEnsemble)
{
    auto s = sim::MetricStats::of({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_DOUBLE_EQ(s.mean, 5.0);
    EXPECT_NEAR(s.stddev, 2.13809, 1e-4); // sample stddev, n-1
    // Student's t(0.975, 7), not the normal 1.96.
    EXPECT_NEAR(s.ci95, 2.365 * 2.13809 / std::sqrt(8.0), 1e-4);
}

TEST(MetricStats, TwoSamplesUseStudentT)
{
    // One degree of freedom: t(0.975, 1) = 12.706, 6.5 times 1.96.
    auto s = sim::MetricStats::of({1.0, 3.0});
    EXPECT_DOUBLE_EQ(s.mean, 2.0);
    EXPECT_DOUBLE_EQ(s.stddev, std::sqrt(2.0));
    EXPECT_NEAR(s.ci95, 12.706, 1e-9);
}

// --- ExperimentSpec expansion -------------------------------------------

TEST(ExperimentSpec, ExpansionOrderAndLabels)
{
    auto spec = sim::ExperimentSpec("t")
                    .config("a", core::SystemConfig::cdna(1))
                    .config("b", core::SystemConfig::xenIntel(1))
                    .directions(true, true)
                    .seeds(2);
    auto points = spec.expand();
    ASSERT_EQ(points.size(), 8u); // 2 configs x 2 dirs x 2 seeds
    // Configs outermost, then axes, then seeds innermost.
    EXPECT_EQ(points[0].cell, "a/tx");
    EXPECT_EQ(points[0].seed, 1u);
    EXPECT_EQ(points[1].cell, "a/tx");
    EXPECT_EQ(points[1].seed, 2u);
    EXPECT_EQ(points[2].cell, "a/rx");
    EXPECT_EQ(points[4].cell, "b/tx");
    EXPECT_EQ(points[7].cell, "b/rx");
    EXPECT_EQ(points[7].seed, 2u);
}

TEST(ExperimentSpec, GuestSuffixOnlyWithMultipleCounts)
{
    auto one = sim::ExperimentSpec("t")
                   .config("c", [](std::uint32_t g) {
                       return core::SystemConfig::cdna(g);
                   });
    EXPECT_EQ(one.expand()[0].cell, "c");

    auto many = sim::ExperimentSpec("t")
                    .config("c",
                            [](std::uint32_t g) {
                                return core::SystemConfig::cdna(g);
                            })
                    .guests({1, 4});
    auto points = many.expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].cell, "c/g1");
    EXPECT_EQ(points[1].cell, "c/g4");
    EXPECT_EQ(points[1].config.numGuests, 4u);
}

TEST(ExperimentSpec, VaryAxisMutatesConfig)
{
    auto spec = sim::ExperimentSpec("t")
                    .config("c", core::SystemConfig::cdna(1))
                    .vary("nics", {{"n1",
                                    [](core::SystemConfig &c) {
                                        c.numNics = 1;
                                    }},
                                   {"n4", [](core::SystemConfig &c) {
                                        c.numNics = 4;
                                    }}});
    auto points = spec.expand();
    ASSERT_EQ(points.size(), 2u);
    EXPECT_EQ(points[0].cell, "c/n1");
    EXPECT_EQ(points[0].config.numNics, 1u);
    EXPECT_EQ(points[1].cell, "c/n4");
    EXPECT_EQ(points[1].config.numNics, 4u);
}

// --- Sweep determinism contract -----------------------------------------

/** A small but non-trivial grid that still runs in well under a second. */
sim::ExperimentSpec
smallSpec()
{
    return sim::ExperimentSpec("small")
        .config("cdna", core::SystemConfig::cdna(2))
        .config("xen", core::SystemConfig::xenIntel(1))
        .directions(true, true)
        .seeds(2)
        .warmup(sim::milliseconds(2))
        .measure(sim::milliseconds(10));
}

TEST(SweepDeterminism, SameJsonForOneAndEightJobs)
{
    sim::SweepOptions j1;
    j1.jobs = 1;
    sim::SweepOptions j8;
    j8.jobs = 8;
    auto a = sim::runSweep(smallSpec(), j1);
    auto b = sim::runSweep(smallSpec(), j8);
    ASSERT_EQ(a.runs.size(), b.runs.size());
    for (std::size_t i = 0; i < a.runs.size(); ++i) {
        EXPECT_EQ(a.runs[i].point.cell, b.runs[i].point.cell);
        EXPECT_EQ(a.runs[i].json, b.runs[i].json) << a.runs[i].point.cell;
    }
    EXPECT_EQ(sim::sweepToJson(a), sim::sweepToJson(b));
}

TEST(SweepDeterminism, CellMatchesStandaloneRun)
{
    auto spec = smallSpec();
    sim::SweepOptions opt;
    opt.jobs = 2;
    auto result = sim::runSweep(spec, opt);

    // Re-run the first cell's first seed exactly as a standalone
    // program would: same config, seed, warmup, and measure window.
    const auto &run = result.runs[result.cells[0].firstRun];
    core::SystemConfig cfg = run.point.config;
    core::System sys(cfg);
    core::Report report = sys.run(run.point.warmup, run.point.measure);
    EXPECT_EQ(core::reportToJson(report), run.json);
}

TEST(SweepDeterminism, ObservedRunStaysByteIdentical)
{
    sim::SweepOptions plain;
    plain.jobs = 1;
    auto baseline = sim::runSweep(smallSpec(), plain);

    sim::SweepOptions observed;
    observed.jobs = 2;
    observed.observeCell = "cdna/tx";
    observed.obs.statsJsonFile = "/dev/null";
    auto traced = sim::runSweep(smallSpec(), observed);
    ASSERT_EQ(baseline.runs.size(), traced.runs.size());
    for (std::size_t i = 0; i < baseline.runs.size(); ++i)
        EXPECT_EQ(baseline.runs[i].json, traced.runs[i].json);
}

TEST(SweepDeterminism, ObservedTopologyRunStaysByteIdentical)
{
    // The noisy cell is a two-host, two-switch topology built by the
    // preset's runner; observing it must not move a byte either.
    auto spec = [] {
        sim::ExperimentSpec s = *sim::presets::byName("noisy-neighbor");
        s.warmup(sim::milliseconds(2)).measure(sim::milliseconds(5));
        return s;
    };
    sim::SweepOptions plain;
    plain.jobs = 1;
    auto baseline = sim::runSweep(spec(), plain);

    sim::SweepOptions observed;
    observed.jobs = 2;
    observed.observeCell = "cdna/noisy";
    observed.obs.traceFile = "/dev/null";
    observed.obs.statsJsonFile = "/dev/null";
    auto traced = sim::runSweep(spec(), observed);
    ASSERT_EQ(baseline.runs.size(), traced.runs.size());
    for (std::size_t i = 0; i < baseline.runs.size(); ++i)
        EXPECT_EQ(baseline.runs[i].json, traced.runs[i].json)
            << baseline.runs[i].point.cell;
    EXPECT_EQ(sim::sweepToJson(baseline), sim::sweepToJson(traced));
}

TEST(SweepAggregate, CellsGroupSeedsInFirstAppearanceOrder)
{
    sim::SweepOptions opt;
    opt.jobs = 4;
    auto result = sim::runSweep(smallSpec(), opt);
    ASSERT_EQ(result.cells.size(), 4u); // 2 configs x 2 directions
    EXPECT_EQ(result.cells[0].cell, "cdna/tx");
    EXPECT_EQ(result.cells[1].cell, "cdna/rx");
    EXPECT_EQ(result.cells[2].cell, "xen/tx");
    EXPECT_EQ(result.cells[3].cell, "xen/rx");
    for (const auto &cs : result.cells) {
        EXPECT_EQ(cs.runs, 2u); // the two seeds
        ASSERT_FALSE(cs.metrics.empty());
        // mbps must aggregate to the mean of the two per-seed reports.
        double sum = 0;
        std::size_t n = 0;
        for (const auto &run : result.runs)
            if (run.point.cell == cs.cell) {
                sum += run.report.mbps;
                ++n;
            }
        ASSERT_EQ(n, 2u);
        EXPECT_NEAR(cs.metrics[0].second.mean, sum / 2.0, 1e-9);
    }
}

TEST(SweepJson, DocumentShapeAndVersion)
{
    sim::SweepOptions opt;
    opt.jobs = 1;
    auto result = sim::runSweep(sim::ExperimentSpec("tiny")
                                    .config("cdna",
                                            core::SystemConfig::cdna(1))
                                    .warmup(sim::milliseconds(1))
                                    .measure(sim::milliseconds(5)),
                                opt);
    std::string json = sim::sweepToJson(result);
    std::string version_key = "\"schema_version\": " +
                              std::to_string(core::kReportSchemaVersion);
    EXPECT_NE(json.find(version_key), std::string::npos);
    EXPECT_NE(json.find("\"kind\": \"cdna-sweep\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"tiny\""), std::string::npos);
    // The nested report is spliced verbatim, so the single-run document
    // must appear as a substring of the sweep document (modulo indent).
    ASSERT_EQ(result.runs.size(), 1u);
    std::string report = result.runs[0].json;
    std::string firstLine = report.substr(0, report.find('\n'));
    EXPECT_NE(json.find(firstLine), std::string::npos);
    // No wall-clock or thread-count leakage into the canonical output.
    EXPECT_EQ(json.find("jobs"), std::string::npos);
    EXPECT_EQ(json.find("wall"), std::string::npos);
}

TEST(SweepPresets, RegistryResolvesEveryPreset)
{
    for (const auto &[name, make] : sim::presets::all()) {
        auto spec = sim::presets::byName(name);
        ASSERT_TRUE(spec.has_value()) << name;
        EXPECT_EQ(spec->name(), name);
        EXPECT_FALSE(spec->expand().empty()) << name;
    }
    EXPECT_FALSE(sim::presets::byName("nope").has_value());
}

// --- preset tables and paper values ---------------------------------------

TEST(SweepTable, ColumnsResolveForEveryPreset)
{
    for (const auto &[name, make] : sim::presets::all()) {
        // Every column and paper value must name a cell and key the
        // sweep produces; a short window suffices to produce them.
        sim::ExperimentSpec spec = make();
        EXPECT_FALSE(spec.tableColumns().empty()) << name;
        spec.warmup(sim::milliseconds(1)).measure(sim::milliseconds(2));
        sim::SweepOptions opt;
        opt.jobs = 2;
        sim::SweepTable table =
            sim::renderTable(spec, sim::runSweep(spec, opt));
        for (const std::string &e : table.errors)
            ADD_FAILURE() << name << ": " << e;
    }
}

/** A two-guest CDNA cell over two seeds, with the given table data. */
sim::ExperimentSpec
tableSpec()
{
    return sim::ExperimentSpec("t")
        .config("cdna", core::SystemConfig::cdna(2))
        .seeds(2)
        .warmup(sim::milliseconds(2))
        .measure(sim::milliseconds(10));
}

TEST(SweepTable, RowsAverageSeedsJoinArraysAndFlagUnknownNames)
{
    auto spec = tableSpec()
                    .columns({"mbps", "per_guest_mbps", "no_such_key"})
                    .paper("cdna", "mbps", 1868)
                    .paper("cdna", "no_such_key", 1)
                    .paper("nope", "mbps", 1)
                    .runner([](const sim::RunPoint &point,
                               std::map<std::string, double> &extra) {
                        extra["idle_pct"] = 0.0; // named like a report key
                        return sim::runHost(point);
                    });
    sim::SweepOptions opt;
    auto result = sim::runSweep(spec, opt);
    sim::SweepTable table = sim::renderTable(spec, result);

    // One column, two paper values and one runner extra.
    ASSERT_EQ(table.errors.size(), 4u);
    EXPECT_NE(table.errors[0].find("idle_pct"), std::string::npos);
    ASSERT_EQ(table.checks.size(), 1u);
    ASSERT_EQ(result.runs.size(), 2u);
    EXPECT_DOUBLE_EQ(table.checks[0].measured,
                     (result.runs[0].report.mbps + result.runs[1].report.mbps) /
                         2.0);
    std::string row = table.text.substr(table.text.find("\ncdna ") + 1);
    row = row.substr(0, row.find('\n'));
    EXPECT_NE(row.find('/'), std::string::npos) << row; // two guests
    EXPECT_NE(row.find('?'), std::string::npos) << row; // unknown column
}

TEST(SweepTable, DefaultBandsFollowTheMetricFamily)
{
    auto spec = tableSpec()
                    .paper("cdna", "mbps", 1000)
                    .paper("cdna", "idle_pct", 50)
                    .paper("cdna", "guest_intr_per_sec", 1000)
                    .paper("cdna", "drv_intr_per_sec", 0)
                    .paper("cdna", "mbps", 1000, sim::Band::absolute(1))
                    .paper("cdna", "fairness", 1); // no family
    sim::SweepOptions opt;
    sim::SweepTable table = sim::renderTable(spec, sim::runSweep(spec, opt));
    ASSERT_EQ(table.errors.size(), 1u);
    EXPECT_NE(table.errors[0].find("fairness"), std::string::npos);
    ASSERT_EQ(table.checks.size(), 5u);
    const double lo[] = {900, 45, 750, -100, 999};
    const double hi[] = {1100, 55, 1250, 100, 1001};
    for (std::size_t i = 0; i < 5; ++i) {
        EXPECT_DOUBLE_EQ(table.checks[i].lo(), lo[i]) << i;
        EXPECT_DOUBLE_EQ(table.checks[i].hi(), hi[i]) << i;
    }
}

TEST(SweepTable, DerivedKeysPrintTwoDecimals)
{
    // A derived report key keeps two decimals whole or not, so its
    // column lines up; a runner extra drops them when integral.
    EXPECT_EQ(core::formatColumn("fairness", 1.0), "1.00");
    EXPECT_EQ(core::formatColumn("fairness", 0.0), "0.00");
    EXPECT_EQ(core::formatColumn("sender_retrans", 12.0), "12");
}

const char *const kPaperPresets[] = {"table1", "table2", "table3",
                                     "table4", "fig3",   "fig4"};

TEST(PaperFidelity, EveryPublishedNumberIsChecked)
{
    // Table 1: four Mb/s.  Tables 2-4: the nine profile columns of
    // 3 + 3 + 4 rows.  Figures 3-4: Xen Mb/s at 1 and 24 guests, CDNA
    // Mb/s at 1 guest, CDNA idle at 1, 2, 4 and 8 guests.
    std::size_t n = 0;
    for (const char *preset : kPaperPresets)
        n += sim::presets::byName(preset)->paperValues().size();
    EXPECT_EQ(n, 4u + 9u * (3 + 3 + 4) + 2u * 7u);
}

/** Run @p preset at seed 1; every paper value must sit in its band. */
void
expectPaperFidelity(const std::string &preset)
{
    auto spec = sim::presets::byName(preset);
    ASSERT_TRUE(spec.has_value()) << preset;
    sim::SweepOptions opt;
    opt.jobs = 2;
    sim::SweepTable table = sim::renderTable(*spec, sim::runSweep(*spec, opt));
    for (const std::string &e : table.errors)
        ADD_FAILURE() << preset << ": " << e;
    EXPECT_EQ(table.checks.size(), spec->paperValues().size());
    for (const sim::PaperCheck &c : table.checks)
        EXPECT_TRUE(c.inBand())
            << std::fixed << std::setprecision(2) << preset << " "
            << c.paper.cell << " " << c.paper.key << ": measured "
            << c.measured << ", paper " << c.paper.value << ", band ["
            << c.lo() << ", " << c.hi() << "]";
}

TEST(PaperFidelity, Table1) { expectPaperFidelity("table1"); }
TEST(PaperFidelity, Table2) { expectPaperFidelity("table2"); }
TEST(PaperFidelity, Table3) { expectPaperFidelity("table3"); }
TEST(PaperFidelity, Table4) { expectPaperFidelity("table4"); }
TEST(PaperFidelity, Fig3) { expectPaperFidelity("fig3"); }
TEST(PaperFidelity, Fig4) { expectPaperFidelity("fig4"); }

// --- full-document report goldens ----------------------------------------

std::string
readGolden(const std::string &file)
{
    std::ifstream in(std::string(CDNA_GOLDEN_DIR) + "/" + file);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Run one preset cell at seed 1 the way the sweep executes it, with
 * @p faults (when not empty) added to the cell's config.
 */
std::string
presetCellJson(const std::string &preset, const std::string &cell,
               const core::FaultPlan &faults = {})
{
    auto spec = sim::presets::byName(preset);
    if (!spec)
        return "no preset " + preset;
    for (sim::RunPoint point : spec->expand()) {
        if (point.cell != cell || point.seed != 1)
            continue;
        if (!faults.empty())
            point.config.withFaults(faults);
        return sim::runPoint(*spec, point).json;
    }
    return "no cell " + cell;
}

/**
 * Cells whose schema 2-7 blocks are non-zero (TCP recovery, context
 * paging, swpt validation, RPC tails, outages, switch drops), so a
 * report key collected with the wrong kind -- a windowed delta read as
 * an end value, a sum read as a max -- changes a golden byte.  The
 * table1 native cells pin the native driver with direct interrupts and
 * RX auto-refill, flipcopy's copy cell the netback's copy-mode length,
 * and the Xen dom0-kill latency cell the netback's crash orphaning and
 * its drops while a frontend reconnects.  The oversubscribed CDNA
 * latency cell pins the RPC engine's timeout and late-response paths
 * (about half its requests time out), and the swpt dom0-kill cell the
 * swpt RPC path through a validator stall.  The noisy-neighbor cells
 * are the only topology with two switches, a trunk and two hosts: they
 * pin static routing across the trunk and its tail drops.  Oversub's
 * 128-guest Xen cell is the only one with domain ids of 73 and up,
 * whose first timer tick (137 us apart per id) falls after an earlier
 * domain's second: it pins the hosts' tick order past the period.
 */
TEST(ReportGolden, PresetCellsMatchFullDocuments)
{
    struct Case
    {
        const char *preset;
        const char *cell;
        const char *file;
    };
    const Case cases[] = {
        {"tcp-loss", "cdna/drop0.01", "tcp-loss-cdna-drop0.01.json"},
        {"oversub", "cdna/g64", "oversub-cdna-g64.json"},
        {"oversub", "xen/g128", "oversub-xen-g128.json"},
        {"swpt", "swpt/g8/rx", "swpt-swpt-g8-rx.json"},
        {"latency", "cdna/load10k/healthy",
         "latency-cdna-load10k-healthy.json"},
        {"availability", "xen/domkill", "availability-xen-domkill.json"},
        {"incast", "cdna/f8/buf32k", "incast-cdna-f8-buf32k.json"},
        {"iommu", "perdevice", "iommu-perdevice.json"},
        {"table1", "native/tx", "table1-native-tx.json"},
        {"table1", "native/rx", "table1-native-rx.json"},
        {"flipcopy", "xen-copy/g8", "flipcopy-xen-copy-g8.json"},
        {"latency", "xen/load10k/domkill",
         "latency-xen-load10k-domkill.json"},
        {"latency", "cdna-oversub/load10k/healthy",
         "latency-cdna-oversub-load10k-healthy.json"},
        {"latency", "swpt/load10k/domkill",
         "latency-swpt-load10k-domkill.json"},
        {"noisy-neighbor", "cdna/noisy", "noisy-neighbor-cdna-noisy.json"},
        {"noisy-neighbor", "xen/noisy", "noisy-neighbor-xen-noisy.json"},
    };
    for (const Case &c : cases) {
        std::string golden = readGolden(c.file);
        ASSERT_FALSE(golden.empty()) << c.file;
        EXPECT_EQ(presetCellJson(c.preset, c.cell), golden) << c.file;
    }
}

/**
 * Every architecture under both outage classes: each cell drives a
 * different fault hook (netback crash, dom0 CDNA context teardown and
 * re-attach, swpt validator stall, CDNA firmware reconcile, shared
 * Intel NIC reset), so moving any statement in them changes a byte.
 */
TEST(ReportGolden, AvailabilityCellsMatchFullDocuments)
{
    for (const char *cell :
         {"xen-rice/domkill", "xen-rice/fwreboot", "cdna/domkill",
          "cdna/fwreboot", "swpt/domkill", "swpt/fwreboot"}) {
        std::string file = "availability-" + std::string(cell) + ".json";
        file[file.find('/')] = '-';
        std::string golden = readGolden(file);
        ASSERT_FALSE(golden.empty()) << file;
        EXPECT_EQ(presetCellJson("availability", cell), golden) << file;
    }
}

/**
 * Device and wire branches no other golden reaches: IOMMU-refused RX
 * completions, a firmware watchdog reset with mailbox timeouts and ring
 * resyncs, and the duplicate and corrupt branches of a link and of a
 * switch ingress port.
 */
TEST(ReportGolden, DeviceAndWireFaultPathsMatchFullDocuments)
{
    const core::FaultPlan dup_corrupt =
        core::FaultPlan{}.duplicating(0.01).corrupting(0.01);
    struct Case
    {
        const char *file;
        core::SystemConfig cfg;
        sim::Time measure;
    };
    const Case cases[] = {
        {"iommu-perdevice-rx.json",
         core::SystemConfig::cdna(2).receive().withProtection(false).withIommu(
             mem::Iommu::Mode::kPerDevice),
         sim::milliseconds(400)},
        {"fwstall-cdna-rx.json",
         core::SystemConfig::cdna(2).receive().withFaults(
             core::FaultPlan{}.stallingFirmware(0, 150, 5)),
         sim::milliseconds(300)},
        {"tcp-dupcorrupt-cdna.json",
         core::SystemConfig::cdna(1).transport(core::kTcp).withFaults(
             dup_corrupt),
         sim::milliseconds(300)},
    };
    for (const Case &c : cases) {
        std::string golden = readGolden(c.file);
        ASSERT_FALSE(golden.empty()) << c.file;
        core::System sys(c.cfg);
        EXPECT_EQ(core::reportToJson(sys.run(sim::milliseconds(100), c.measure)),
                  golden)
            << c.file;
    }
    std::string golden = readGolden("incast-cdna-f8-buf32k-dupcorrupt.json");
    ASSERT_FALSE(golden.empty());
    EXPECT_EQ(presetCellJson("incast", "cdna/f8/buf32k", dup_corrupt), golden);
}

/** Guest kill under TCP: CDNA context revocation and swpt port detach. */
TEST(ReportGolden, KillGuestMatchesFullDocuments)
{
    struct Case
    {
        const char *file;
        core::SystemConfig cfg;
    };
    const Case cases[] = {
        {"killguest-cdna-tcp.json", core::SystemConfig::cdna(2)},
        {"killguest-swpt-tcp.json", core::SystemConfig::swPassthrough(2)},
    };
    for (const Case &c : cases) {
        std::string golden = readGolden(c.file);
        ASSERT_FALSE(golden.empty()) << c.file;
        core::SystemConfig cfg = c.cfg;
        cfg.transport(core::kTcp).withFaults(
            core::FaultPlan{}.killingGuest(1, 150));
        core::System sys(cfg);
        EXPECT_EQ(core::reportToJson(
                      sys.run(sim::milliseconds(100), sim::milliseconds(300))),
                  golden)
            << c.file;
    }
}

/**
 * Every component's counters of one observed run of @p spec's executor,
 * as "component counter value" lines in registration order, read from
 * the "counters" objects of its --stats-json document (which lists
 * ctx.objects() and each one's stats().counters()).
 */
std::string
countersOf(const sim::ExperimentSpec &spec, sim::RunPoint point)
{
    core::CliOptions obs;
    obs.statsJsonFile = testing::TempDir() + "counter_golden_stats.json";
    point.observe = &obs;
    sim::runPoint(spec, point);
    std::ifstream in(obs.statsJsonFile);
    std::string out, line, component;
    bool counters = false;
    while (std::getline(in, line)) {
        if (line == "    \"counters\": {") {
            counters = true;
        } else if (line.rfind("    }", 0) == 0) {
            counters = false;
        } else if (counters) {
            // `      "name": value` with an optional trailing comma.
            std::size_t q = line.find('"', 7);
            std::string value = line.substr(q + 3);
            if (value.back() == ',')
                value.pop_back();
            out += component + " " + line.substr(7, q - 7) + " " + value +
                   "\n";
        } else if (line.rfind("  \"", 0) == 0 && line.back() == '{') {
            component = line.substr(3, line.find('"', 3) - 3);
        }
    }
    std::remove(obs.statsJsonFile.c_str());
    return out;
}

/**
 * Counter names, order and values of every class that counts: Xen/Intel
 * TCP through a driver-domain crash (fault injector, netback, TCP),
 * Xen/RiceNIC (dom0's CDNA driver), 40 CDNA guests paging one NIC's
 * contexts, swpt receive (validator, swpt drivers), and the latency
 * (RPC engine), iommu (per-device IOMMU) and noisy-neighbor (switches,
 * trunk, a second host) preset cells.  On a mismatch the measured text
 * is written beside the test's temporary files.
 */
TEST(CounterGolden, EveryComponentKeepsNamesOrderAndValues)
{
    using core::SystemConfig;
    auto host = [](const char *label, SystemConfig cfg) {
        sim::RunPoint point;
        point.cell = label;
        point.config = std::move(cfg);
        point.warmup = sim::milliseconds(20);
        point.measure = sim::milliseconds(40);
        return point;
    };
    std::string text;
    for (const sim::RunPoint &point :
         {host("xen-intel/tcp/domkill",
               SystemConfig::xenIntel(2).transport(core::kTcp).withFaults(
                   core::FaultPlan{}.killingDriverDomain(30))),
          host("xen-rice", SystemConfig::xenRice(2)),
          host("cdna/g40/nics1", SystemConfig::cdna(40).withNics(1)),
          host("swpt/rx", SystemConfig::swPassthrough(2).receive())})
        text += "# " + point.cell + "\n" +
                countersOf(sim::ExperimentSpec("host"), point);
    for (auto [preset, cell] :
         {std::pair{"latency", "cdna/load10k/healthy"},
          std::pair{"iommu", "perdevice"},
          std::pair{"noisy-neighbor", "cdna/noisy"}}) {
        auto spec = sim::presets::byName(preset);
        ASSERT_TRUE(spec) << preset;
        for (sim::RunPoint point : spec->expand()) {
            if (point.cell != cell || point.seed != 1)
                continue;
            point.warmup = std::min(point.warmup, sim::milliseconds(20));
            point.measure = std::min(point.measure, sim::milliseconds(40));
            text += "# " + std::string(preset) + " " + cell + "\n" +
                    countersOf(*spec, point);
        }
    }
    std::string golden = readGolden("counters.txt");
    ASSERT_FALSE(golden.empty());
    if (text != golden) {
        std::string path = testing::TempDir() + "counters.txt";
        std::ofstream(path) << text;
        ADD_FAILURE() << "counters differ from tests/golden/counters.txt; "
                         "measured text in "
                      << path;
    }
}

} // namespace
} // namespace cdna
