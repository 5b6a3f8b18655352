/**
 * @file
 * Randomized property tests (seeded, deterministic): memory-ownership
 * invariants under random alloc/pin/release interleavings, protection
 * under random malicious enqueue streams, and whole-system determinism
 * across seeds.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/system.hh"
#include "sim/rng.hh"

using namespace cdna;
using namespace cdna::core;

// ----------------------------------------------------- memory fuzzing ----

class MemoryFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(MemoryFuzz, OwnershipInvariantsHold)
{
    sim::SimContext ctx;
    mem::PhysMemory memory(ctx, "phys-mem", 512);
    sim::Rng rng(GetParam());

    struct Held
    {
        mem::PageNum page;
        std::uint32_t pins = 0;
        bool released = false;
    };
    std::map<mem::PageNum, Held> held; // owned by domain 1
    std::uint64_t initial_free = memory.freePages();

    for (int step = 0; step < 4000; ++step) {
        switch (rng.below(5)) {
          case 0: { // allocate
            auto pages = memory.alloc(1, 1 + rng.below(3));
            for (auto p : pages)
                held[p] = Held{p};
            break;
          }
          case 1: { // pin a random held page
            if (held.empty())
                break;
            auto it = held.begin();
            std::advance(it, rng.below(held.size()));
            memory.getRef(it->first);
            ++it->second.pins;
            break;
          }
          case 2: { // unpin
            if (held.empty())
                break;
            auto it = held.begin();
            std::advance(it, rng.below(held.size()));
            if (it->second.pins > 0) {
                memory.putRef(it->first);
                --it->second.pins;
                if (it->second.released && it->second.pins == 0)
                    held.erase(it);
            }
            break;
          }
          case 3: { // release
            if (held.empty())
                break;
            auto it = held.begin();
            std::advance(it, rng.below(held.size()));
            if (it->second.released)
                break;
            bool immediate = memory.release(it->first);
            // Invariant: release is immediate iff unpinned.
            EXPECT_EQ(immediate, it->second.pins == 0);
            if (immediate)
                held.erase(it);
            else
                it->second.released = true;
            break;
          }
          case 4: { // check invariants on a random held page
            if (held.empty())
                break;
            auto it = held.begin();
            std::advance(it, rng.below(held.size()));
            // Pages we hold (even release-pending) stay ours until the
            // last pin drops.
            EXPECT_EQ(memory.ownerOf(it->first), 1u);
            EXPECT_EQ(memory.refCount(it->first), it->second.pins);
            break;
          }
        }
    }

    // Drain: unpin and release everything; all pages must come back.
    for (auto &[page, h] : held) {
        while (h.pins > 0) {
            memory.putRef(page);
            --h.pins;
        }
        if (!h.released)
            memory.release(page);
    }
    EXPECT_EQ(memory.freePages(), initial_free);
    EXPECT_EQ(memory.violationCount(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemoryFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

// ------------------------------------------------- protection fuzzing ----

class ProtectionFuzz : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ProtectionFuzz, MaliciousEnqueuesNeverCorrupt)
{
    // A guest throws random enqueue requests -- its own pages, the
    // victim's pages, the hypervisor's, unmapped addresses, zero-length
    // entries -- at the protected interface while traffic flows.
    // Whatever it does, no DMA may ever touch memory it does not own.
    SystemConfig cfg = SystemConfig::cdna(2);
    cfg.numNics = 1;
    cfg.seed = GetParam();
    System sys(cfg);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(3));

    auto *attacker = sys.guestDomain(0);
    auto *victim = sys.guestDomain(1);
    CdnaNic &nic = *sys.cdnaNic(0);
    auto cxt = nic.allocContext(attacker->id(), net::MacAddr::fromId(900));
    nic.configureContextRings(
        cxt, 64, mem::addrOf(sys.mem().allocOne(attacker->id())), 64,
        mem::addrOf(sys.mem().allocOne(attacker->id())));
    auto handle = sys.protection()->registerRing(nic, cxt,
                                                 attacker->id(), true);

    sim::Rng rng(GetParam() * 977);
    std::vector<mem::PageNum> own;
    for (int i = 0; i < 8; ++i)
        own.push_back(sys.mem().allocOne(attacker->id()));
    std::vector<mem::PageNum> theirs;
    for (int i = 0; i < 8; ++i)
        theirs.push_back(sys.mem().allocOne(victim->id()));

    std::uint32_t legit = 0;
    for (int round = 0; round < 60; ++round) {
        std::vector<DmaProtection::Request> reqs;
        auto n = 1 + rng.below(4);
        bool all_mine = true;
        for (std::uint64_t i = 0; i < n; ++i) {
            DmaProtection::Request req;
            mem::PhysAddr addr;
            std::uint32_t len = 1000;
            switch (rng.below(5)) {
              case 0:
                addr = mem::addrOf(own[rng.below(own.size())]);
                break;
              case 1:
                addr = mem::addrOf(theirs[rng.below(theirs.size())]);
                all_mine = false;
                break;
              case 2:
                addr = mem::addrOf(1u << 30); // far out of range
                all_mine = false;
                break;
              case 3:
                addr = mem::addrOf(own[rng.below(own.size())]) +
                       rng.below(4000);
                // may spill into the next page, which we may not own
                if (mem::pageOf(addr + 999) != mem::pageOf(addr) &&
                    !sys.mem().ownedBy(mem::pageOf(addr + 999),
                                       attacker->id()))
                    all_mine = false;
                break;
              default:
                // zero-length: spans no pages, even at address 0
                addr = rng.below(2) ? 0
                                    : mem::addrOf(own[rng.below(own.size())]);
                len = 0;
                break;
            }
            req.sg = {{addr, len}};
            reqs.push_back(std::move(req));
        }
        (void)all_mine;
        sys.protection()->enqueue(handle, std::move(reqs),
                                  [&](DmaProtection::Result r) {
                                      legit += r.accepted;
                                  });
        sys.ctx().events().runUntil(sys.ctx().now() +
                                    sim::microseconds(200));
    }
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(5));

    // THE property: no DMA ownership violation, ever.
    EXPECT_EQ(sys.mem().violationCount(), 0u);
    // And the victim's pages are untouched (still owned, unpinned by
    // anything the attacker did after completions drained).
    for (auto p : theirs)
        EXPECT_TRUE(sys.mem().ownedBy(p, victim->id()));
    (void)legit;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtectionFuzz,
                         ::testing::Values(11, 22, 33, 44));

// -------------------------------------------------- system determinism ----

class SeedSweep : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(SeedSweep, RunsAreReproducible)
{
    auto once = [&] {
        SystemConfig cfg = SystemConfig::cdna(2);
        cfg.seed = GetParam();
        System sys(cfg);
        return sys.run(sim::milliseconds(30), sim::milliseconds(60));
    };
    auto a = once();
    auto b = once();
    EXPECT_DOUBLE_EQ(a.mbps, b.mbps);
    EXPECT_DOUBLE_EQ(a.idlePct, b.idlePct);
    EXPECT_DOUBLE_EQ(a.guestIntrPerSec, b.guestIntrPerSec);
    EXPECT_EQ(a.dmaViolations, b.dmaViolations);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep, ::testing::Values(1, 7, 42));
