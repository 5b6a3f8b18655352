/**
 * @file
 * The malicious-driver demonstrations of paper section 3.3, narrated.
 *
 * A compromised guest device driver tries, in turn:
 *   1. enqueueing a DMA descriptor that names another guest's memory;
 *   2. freeing a page immediately after enqueueing it for DMA (hoping
 *      it gets reallocated to a victim while the NIC still writes it);
 *   3. bumping the context's producer index past the last valid
 *      descriptor so the NIC walks stale ring slots.
 *
 * Each attack is run twice: against the full CDNA protection
 * (hypervisor validation + pinning + sequence numbers) and against a
 * system with protection disabled, showing precisely what each
 * mechanism prevents.
 */

#include <cstdio>

#include "core/system.hh"

using namespace cdna;
using namespace cdna::core;

namespace {

void
banner(const char *text)
{
    std::printf("\n=== %s ===\n", text);
}

System
makeSystem(bool protection)
{
    SystemConfig cfg = SystemConfig::cdna(2).withProtection(protection);
    cfg.numNics = 1;
    return System(std::move(cfg));
}

void
attackForeignPage(bool protection)
{
    System sys = makeSystem(protection);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(5));

    auto *attacker = sys.guestDomain(0);
    auto *victim = sys.guestDomain(1);
    CdnaNic &nic = *sys.cdnaNic(0);
    mem::PageNum victim_page = sys.mem().allocOne(victim->id());

    auto cxt = nic.allocContext(attacker->id(), net::MacAddr::fromId(666));
    nic.configureContextRings(
        *cxt, 8, mem::addrOf(sys.mem().allocOne(attacker->id())), 8,
        mem::addrOf(sys.mem().allocOne(attacker->id())));
    auto handle = sys.protection()->registerRing(nic, *cxt,
                                                 attacker->id(), true);

    DmaProtection::Request req;
    req.sg = {{mem::addrOf(victim_page), 1460}};
    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(std::move(req));

    // Without protection the guest writes the ring itself, so the
    // callback runs before enqueue() returns.
    DmaProtection::Result res;
    sys.protection()->enqueue(handle, std::move(reqs),
                              [&](DmaProtection::Result r) { res = r; });
    if (protection) {
        sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(5));
        std::printf("  protected:   hypercall rejected (%s), "
                    "%llu descriptors accepted, %llu violations\n",
                    vmm::faultName(res.fault),
                    static_cast<unsigned long long>(res.accepted),
                    static_cast<unsigned long long>(
                        sys.mem().violationCount()));
    } else {
        nic.pioWriteMailbox(*cxt, nic::kMboxTxProducer, res.producer);
        sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(5));
        std::printf("  unprotected: descriptor accepted; the NIC read "
                    "the victim's page -> %llu DMA violation(s), "
                    "%llu ghost frame(s) on the wire\n",
                    static_cast<unsigned long long>(
                        sys.mem().violationCount()),
                    static_cast<unsigned long long>(nic.ghostTxCount()));
    }
}

void
attackFreeAfterEnqueue()
{
    System sys = makeSystem(true);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(5));

    auto *attacker = sys.guestDomain(0);
    CdnaNic &nic = *sys.cdnaNic(0);
    auto cxt = nic.allocContext(attacker->id(), net::MacAddr::fromId(667));
    nic.configureContextRings(
        *cxt, 8, mem::addrOf(sys.mem().allocOne(attacker->id())), 8,
        mem::addrOf(sys.mem().allocOne(attacker->id())));
    auto handle = sys.protection()->registerRing(nic, *cxt,
                                                 attacker->id(), true);

    mem::PageNum page = sys.mem().allocOne(attacker->id());
    DmaProtection::Request req;
    req.sg = {{mem::addrOf(page), 1460}};
    net::Packet pkt;
    pkt.dst = sys.peer(0).mac();
    pkt.payloadBytes = 1460;
    pkt.hostSg = req.sg;
    req.pkt = std::move(pkt);
    std::vector<DmaProtection::Request> reqs;
    reqs.push_back(std::move(req));

    sys.protection()->enqueue(handle, std::move(reqs),
                              [&](DmaProtection::Result r) {
        // The attack: release the page the instant it is enqueued.
        bool freed_now = sys.mem().release(page);
        std::printf("  release while DMA pending: %s (refcount %u)\n",
                    freed_now ? "FREED (bug!)" : "deferred by pin",
                    sys.mem().refCount(page));
        nic.pioWriteMailbox(*cxt, nic::kMboxTxProducer, r.producer);
    });
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(10));
    std::printf("  after DMA completed: violations=%llu (page could not "
                "be reallocated mid-transfer)\n",
                static_cast<unsigned long long>(sys.mem().violationCount()));
}

void
attackProducerOverrun(bool protection)
{
    System sys = makeSystem(protection);
    sys.start();
    sys.ctx().events().runUntil(sim::milliseconds(30));

    auto *attacker = sys.guestDomain(0);
    CdnaNic &nic = *sys.cdnaNic(0);
    auto cxt = sys.cdnaDriver(0, 0)->context();

    nic.pioWriteMailbox(cxt, nic::kMboxTxProducer, 0xFFFFu);
    sys.ctx().events().runUntil(sys.ctx().now() + sim::milliseconds(5));

    if (protection) {
        std::printf("  protected:   context faulted=%s, seqno faults=%llu "
                    "-> context shut down, others unaffected\n",
                    nic.contextFaulted(cxt) ? "yes" : "no",
                    static_cast<unsigned long long>(nic.seqnoFaults()));
        std::printf("               victim guest context faulted=%s\n",
                    nic.contextFaulted(sys.cdnaDriver(1, 0)->context())
                        ? "yes" : "no");
    } else {
        std::printf("  unprotected: context faulted=%s -- the NIC keeps "
                    "walking stale descriptors\n",
                    nic.contextFaulted(cxt) ? "yes" : "no");
    }
    (void)attacker;
}

} // namespace

int
main()
{
    std::printf("CDNA DMA memory protection: attack demonstrations "
                "(paper section 3.3)\n");

    banner("Attack 1: DMA descriptor naming another guest's page");
    attackForeignPage(true);
    attackForeignPage(false);

    banner("Attack 2: free a page immediately after enqueueing it");
    attackFreeAfterEnqueue();

    banner("Attack 3: bump the producer index past the last valid "
           "descriptor");
    attackProducerOverrun(true);
    attackProducerOverrun(false);

    std::printf("\nSummary: validation blocks foreign pages, reference "
                "counts defer reallocation,\nand sequence numbers catch "
                "stale descriptors -- the three mechanisms of section "
                "3.3.\n");
    return 0;
}
