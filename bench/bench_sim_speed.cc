/**
 * @file
 * Self-benchmark for the discrete-event kernel hot path.
 *
 * Measures the EventQueue (pooled nodes in chunks that never move, an
 * intrusive 4-ary heap with one sift per schedule, pop or cancel, and
 * inline-storage callbacks moved once and run in their node) on three
 * workloads that bracket what the simulator does between I/O events:
 *   - chains:      self-perpetuating event chains (the DMA/wire
 *                  pipelines), 24-byte captures
 *   - fat_capture: the same chains with a 48-byte capture, the largest
 *                  that InplaceCallback stores inline
 *   - timer_cancel: the watchdog pattern -- schedule a timeout, cancel
 *                  it, reschedule -- where cancellation cost dominates
 *
 * Writes BENCH_sim_speed.json (schema_version 2): best-of-three
 * events/sec per workload.  Schema 1 also carried the rates of the
 * queue this one replaced and the speedup over it.  The committed file
 * was measured on a shared 4-vCPU x86-64 host (GCC 12, Release).  On
 * that host, moving each callback once, running it in its node and
 * sifting once per pop raised the three rates by 62%, 60% and 42%
 * (medians of three interleaved runs) over the queue that moved each
 * callback three times and sifted twice per pop.
 *
 * Usage: bench_sim_speed [--events N] [--out FILE]
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "sim/assert.hh"
#include "sim/event_queue.hh"
#include "sim/time.hh"

namespace {

using cdna::sim::EventId;
using cdna::sim::EventQueue;
using cdna::sim::Time;

/** Version of the BENCH_sim_speed.json layout. */
constexpr int kSchemaVersion = 2;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
}

/** Events dispatched per second of wall time since @p t0. */
double
rate(const EventQueue &q, std::chrono::steady_clock::time_point t0)
{
    return static_cast<double>(q.dispatchedCount()) / secondsSince(t0);
}

constexpr int kChains = 16;

/** A self-perpetuating event: 24-byte capture (queue, budget, period). */
struct ChainEvent
{
    EventQueue *q;
    std::uint64_t *remaining;
    Time period;

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        q->schedule(period, *this);
    }
};

/**
 * Workload 1: @c kChains interleaved chains, each with a distinct
 * period so heap order keeps changing instead of degenerating to FIFO.
 */
double
benchChains(std::uint64_t events)
{
    EventQueue q;
    std::uint64_t remaining = events;
    auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < kChains; ++c)
        ChainEvent{&q, &remaining, 700 + 13 * c}();
    q.run();
    return rate(q, t0);
}

/** As ChainEvent but padded to 48 bytes: still inline in an InplaceCallback. */
struct FatChainEvent
{
    EventQueue *q;
    std::uint64_t *remaining;
    Time period;
    std::uint64_t payload[3];

    void
    operator()() const
    {
        if (*remaining == 0)
            return;
        --*remaining;
        FatChainEvent next = *this;
        next.payload[0] += payload[1] ^ payload[2];
        q->schedule(period, next);
    }
};

/** Workload 2: the same chains carrying per-event payload. */
double
benchFatCapture(std::uint64_t events)
{
    EventQueue q;
    std::uint64_t remaining = events;
    auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < kChains; ++c)
        FatChainEvent{&q,
                      &remaining,
                      700 + 13 * c,
                      {static_cast<std::uint64_t>(c), 3, 5}}();
    q.run();
    return rate(q, t0);
}

/**
 * Workload 3: the watchdog pattern.  A driving chain fires every tick;
 * each firing cancels the pending timeout (which never runs) and arms a
 * fresh one further out, so every dispatched event also costs one
 * schedule + one cancel -- the NIC DMA-engine and coalescing-timer
 * shape.
 */
struct WatchdogState
{
    EventQueue *q;
    std::uint64_t remaining;
    EventId timeout = 0;
    bool armed = false;
};

struct WatchdogTick
{
    WatchdogState *s;

    void
    operator()() const
    {
        if (s->armed)
            s->q->cancel(s->timeout);
        s->armed = false;
        if (s->remaining == 0)
            return;
        --s->remaining;
        s->timeout = s->q->schedule(
            50'000, [] { SIM_ASSERT(false, "watchdog timeout fired"); });
        s->armed = true;
        s->q->schedule(1'000, *this);
    }
};

double
benchTimerCancel(std::uint64_t events)
{
    EventQueue q;
    WatchdogState s{&q, events};
    auto t0 = std::chrono::steady_clock::now();
    WatchdogTick{&s}();
    q.run();
    return rate(q, t0);
}

/** Best-of-@p reps events/sec, hiding scheduler noise on a shared box. */
double
bestOf(int reps, double (*fn)(std::uint64_t), std::uint64_t events)
{
    double best = 0;
    for (int i = 0; i < reps; ++i)
        best = std::max(best, fn(events));
    return best;
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t events = 2'000'000;
    std::string out = "BENCH_sim_speed.json";
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--events") == 0 && i + 1 < argc) {
            events = std::strtoull(argv[++i], nullptr, 10);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--events N] [--out FILE]\n", argv[0]);
            return 1;
        }
    }

    constexpr int kReps = 3;
    // Warm up allocators and caches on a small run.
    benchChains(events / 20);

    struct
    {
        const char *name;
        double eventsPerSec;
    } results[] = {
        {"chains", bestOf(kReps, benchChains, events)},
        {"fat_capture", bestOf(kReps, benchFatCapture, events)},
        {"timer_cancel", bestOf(kReps, benchTimerCancel, events / 2)},
    };

    std::printf("=== Event-queue hot-path benchmark (%llu events/run, "
                "best of %d) ===\n",
                static_cast<unsigned long long>(events), kReps);
    std::printf("%-14s %16s\n", "workload", "events/s");
    for (const auto &r : results)
        std::printf("%-14s %16.0f\n", r.name, r.eventsPerSec);

    std::ofstream f(out, std::ios::binary);
    if (!f) {
        std::fprintf(stderr, "cannot write %s\n", out.c_str());
        return 1;
    }
    f << "{\n";
    f << "  \"schema_version\": " << kSchemaVersion << ",\n";
    f << "  \"benchmark\": \"sim_speed\",\n";
    f << "  \"events_per_run\": " << events << ",\n";
    f << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < std::size(results); ++i) {
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "    {\"name\": \"%s\", \"events_per_sec\": %.0f}%s\n",
                      results[i].name, results[i].eventsPerSec,
                      i + 1 < std::size(results) ? "," : "");
        f << buf;
    }
    f << "  ]\n";
    f << "}\n";
    std::printf("wrote %s\n", out.c_str());
    return 0;
}
