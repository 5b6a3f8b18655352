/**
 * @file
 * Unit tests for the hypervisor substrate: domains, event channels
 * (pending-bit merge semantics), hypercalls, interrupt dispatch, and
 * fault recording.
 */

#include <gtest/gtest.h>

#include "cpu/sim_cpu.hh"
#include "mem/phys_memory.hh"
#include "sim/sim_object.hh"
#include "vmm/hypervisor.hh"

using namespace cdna;
using namespace cdna::vmm;

namespace {

struct VmmFixture : ::testing::Test
{
    sim::SimContext ctx;
    mem::PhysMemory mem{ctx, "phys-mem", 1024};
    cpu::SimCpu cpu{ctx, "cpu",
                    [] {
                        cpu::CpuParams p;
                        p.domainSwitchCost = 0;
                        p.cacheColdSurcharge = 0;
                        p.cacheContentionAlpha = 0;
                        return p;
                    }()};
    Hypervisor hv{ctx, cpu, mem};
};

} // namespace

TEST_F(VmmFixture, DomainsGetUniqueIds)
{
    Domain &d0 = hv.createDomain(Domain::Kind::kDriver, "dom0");
    Domain &d1 = hv.createDomain(Domain::Kind::kGuest, "guest0");
    EXPECT_NE(d0.id(), d1.id());
    EXPECT_EQ(hv.domain(d0.id()), &d0);
    EXPECT_EQ(hv.domain(d1.id()), &d1);
    EXPECT_EQ(hv.domain(999), nullptr);
    EXPECT_EQ(d0.kind(), Domain::Kind::kDriver);
    EXPECT_EQ(d1.kind(), Domain::Kind::kGuest);
}

TEST_F(VmmFixture, GuestVcpusContendDriverDoesNot)
{
    Domain &drv = hv.createDomain(Domain::Kind::kDriver, "dom0");
    Domain &g = hv.createDomain(Domain::Kind::kGuest, "g");
    EXPECT_FALSE(drv.vcpu().contends());
    EXPECT_TRUE(g.vcpu().contends());
}

TEST_F(VmmFixture, EventChannelDeliversUpcall)
{
    Domain &g = hv.createDomain(Domain::Kind::kGuest, "g");
    int handled = 0;
    EventChannel &ch = hv.createChannel(g, sim::microseconds(1),
                                        [&] { ++handled; });
    EXPECT_TRUE(ch.notify());
    ctx.events().run();
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(g.virtIrqCount(), 1u);
    // The upcall entry cost landed in the guest's OS bucket.
    EXPECT_EQ(cpu.profile().domainTime(g.id(), cpu::Bucket::kOs),
              sim::microseconds(1));
}

TEST_F(VmmFixture, PendingChannelMergesNotifications)
{
    // The batching mechanism behind the paper's scalability curves:
    // notifying an already-pending channel must not schedule another
    // upcall.
    Domain &g = hv.createDomain(Domain::Kind::kGuest, "g");
    int handled = 0;
    EventChannel &ch = hv.createChannel(g, 0, [&] { ++handled; });
    EXPECT_TRUE(ch.notify());
    EXPECT_FALSE(ch.notify());
    EXPECT_FALSE(ch.notify());
    EXPECT_TRUE(ch.pending());
    ctx.events().run();
    EXPECT_EQ(handled, 1);
    EXPECT_EQ(g.virtIrqCount(), 1u);
    EXPECT_EQ(ch.notifyCount(), 3u);

    // After the handler ran, a new notify schedules again.
    EXPECT_TRUE(ch.notify());
    ctx.events().run();
    EXPECT_EQ(handled, 2);
}

TEST_F(VmmFixture, HypercallChargesOverheadPlusCost)
{
    hv.createDomain(Domain::Kind::kGuest, "g");
    bool ran = false;
    hv.hypercall(sim::microseconds(3), [&] { ran = true; });
    ctx.events().run();
    EXPECT_TRUE(ran);
    EXPECT_EQ(cpu.profile().hypervisor(),
              hv.params().hypercallOverhead + sim::microseconds(3));
    EXPECT_EQ(hv.hypercallCount(), 1u);
}

TEST_F(VmmFixture, PhysicalInterruptRunsIsr)
{
    bool decoded = false;
    hv.physicalInterrupt(sim::microseconds(2), [&] { decoded = true; });
    ctx.events().run();
    EXPECT_TRUE(decoded);
    EXPECT_EQ(hv.physIrqCount(), 1u);
    EXPECT_EQ(cpu.profile().hypervisor(),
              hv.params().physIrqDispatch + sim::microseconds(2));
}

TEST_F(VmmFixture, NotifyChannelChargesEvtchnPath)
{
    Domain &g = hv.createDomain(Domain::Kind::kGuest, "g");
    EventChannel &ch = hv.createChannel(g, 0, {});
    hv.notifyChannel(ch);
    ctx.events().run();
    EXPECT_EQ(g.virtIrqCount(), 1u);
    EXPECT_EQ(cpu.profile().hypervisor(),
              hv.params().hypercallOverhead + hv.params().evtchnSend +
                  hv.params().virtIrqDeliver);
}

TEST_F(VmmFixture, FaultRecording)
{
    Domain &g = hv.createDomain(Domain::Kind::kGuest, "g");
    hv.recordFault(g.id(), Fault::kBadSeqno);
    hv.recordFault(g.id(), Fault::kBadSeqno);
    hv.recordFault(g.id(), Fault::kNotOwner);
    EXPECT_EQ(hv.faultCount(), 3u);
    EXPECT_EQ(hv.faultCount(g.id(), Fault::kBadSeqno), 2u);
    EXPECT_EQ(hv.faultCount(g.id(), Fault::kNotOwner), 1u);
    EXPECT_EQ(hv.faultCount(g.id(), Fault::kRingFull), 0u);
}

TEST_F(VmmFixture, FaultNamesAreStable)
{
    EXPECT_STREQ(faultName(Fault::kNone), "none");
    EXPECT_STREQ(faultName(Fault::kNotOwner), "not-owner");
    EXPECT_STREQ(faultName(Fault::kBadSeqno), "bad-seqno");
    EXPECT_STREQ(faultName(Fault::kBadContext), "bad-context");
    EXPECT_STREQ(faultName(Fault::kRingFull), "ring-full");
}

TEST_F(VmmFixture, GrantsAccessibleThroughHypervisor)
{
    Domain &g = hv.createDomain(Domain::Kind::kGuest, "g");
    mem::PageNum p = mem.allocOne(g.id());
    mem::GrantRef ref = hv.grants().grantAccess(g.id(), 0xEE, p);
    EXPECT_NE(ref, mem::kInvalidGrant);
}
