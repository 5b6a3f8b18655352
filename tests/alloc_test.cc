/**
 * @file
 * Allocation gate: heap allocations per wire frame on the datapath, and
 * heap bytes to build and start a System.
 *
 * This binary replaces the global operator new with a counting one,
 * which is why it is built apart from cdna_tests.  Each per-frame cell
 * builds a whole System, warms it up for 20 ms, then counts heap
 * allocations and the frames EthLink transmitted (its per-port
 * "*_tx_frames" counters, both directions of the wire) over a 50 ms
 * window.
 *
 * Each per-frame bound sits midway between the count before and after
 * the descriptor rings became the one record of posted buffers (SG
 * lists moved into descriptors instead of copied, no shadow pin list,
 * no deques of ring positions, one-entry spans for fixed-record DMAs),
 * so reintroducing those copies fails the gate.  The set-up bound sits
 * midway between the bytes before and after page records were built on
 * demand, so a machine-sized table built up front fails it.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string_view>

#include "core/system.hh"
#include "net/eth_link.hh"

namespace {

std::atomic<std::uint64_t> gAllocs{0};
std::atomic<std::uint64_t> gBytes{0};

void *
countedAlloc(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    gBytes.fetch_add(n, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

} // namespace

// Over-aligned and nothrow forms keep the library defaults (libstdc++
// routes the nothrow forms through these).
void *operator new(std::size_t n) { return countedAlloc(n); }
void *operator new[](std::size_t n) { return countedAlloc(n); }
void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }

using namespace cdna;
using namespace cdna::core;

namespace {

/** Frames transmitted on every EthLink port so far. */
std::uint64_t
wireFrames(const sim::SimContext &ctx)
{
    constexpr std::string_view kSuffix = "_tx_frames";
    std::uint64_t n = 0;
    for (const sim::SimObject *obj : ctx.objects()) {
        if (!dynamic_cast<const net::EthLink *>(obj))
            continue;
        for (const auto &[name, c] : obj->stats().counters())
            if (std::string_view(name).ends_with(kSuffix))
                n += c->value();
    }
    return n;
}

/** Heap allocations per wire frame over the measured window. */
double
allocsPerFrame(SystemConfig cfg)
{
    System sys(std::move(cfg));
    sys.start();
    sim::EventQueue &eq = sys.ctx().events();
    eq.runUntil(eq.now() + sim::milliseconds(20));
    std::uint64_t frames = wireFrames(sys.ctx());
    std::uint64_t allocs = gAllocs.load(std::memory_order_relaxed);
    eq.runUntil(eq.now() + sim::milliseconds(50));
    allocs = gAllocs.load(std::memory_order_relaxed) - allocs;
    frames = wireFrames(sys.ctx()) - frames;
    EXPECT_GT(frames, 1000u);
    return frames ? static_cast<double>(allocs) / static_cast<double>(frames)
                  : 0.0;
}

/** Heap bytes allocated while building and starting a System. */
std::uint64_t
setupBytes(SystemConfig cfg)
{
    std::uint64_t before = gBytes.load(std::memory_order_relaxed);
    System sys(std::move(cfg));
    sys.start();
    return gBytes.load(std::memory_order_relaxed) - before;
}

} // namespace

// Each cell's comment gives the count before -> after the rings became
// the one record (GCC 12.2, x86-64); its bound is their midpoint.  The
// counts do not depend on the host's speed, only on the compiler and
// its standard library.

TEST(AllocGate, CdnaTransmit)
{
    // 11.24 -> 5.80 allocations per frame.
    EXPECT_LT(allocsPerFrame(SystemConfig::cdna(1)), 8.52);
}

TEST(AllocGate, CdnaReceive)
{
    // 7.97 -> 4.93 allocations per frame.
    EXPECT_LT(allocsPerFrame(SystemConfig::cdna(1).receive()), 6.45);
}

TEST(AllocGate, XenRiceTransmit)
{
    // 13.43 -> 7.95 allocations per frame.
    EXPECT_LT(allocsPerFrame(SystemConfig::xenRice(1)), 10.69);
}

TEST(AllocGate, SystemSetupBytes)
{
    // 7,424 KiB -> 296 KiB before -> after page records were built on
    // demand instead of for the whole 1 GB: 262,144 page records and a
    // free list as long were most of a one-guest System's set-up.
    EXPECT_LT(setupBytes(SystemConfig::cdna(1)), 3860u * 1024u);
}
