#include "core/dma_protection.hh"

#include <utility>

#include "sim/assert.hh"

namespace cdna::core {

DmaProtection::DmaProtection(sim::SimContext &ctx, std::string name,
                             vmm::Hypervisor &hv, const CostModel &costs,
                             bool enabled)
    : sim::SimObject(ctx, std::move(name)),
      hv_(hv),
      costs_(costs),
      enabled_(enabled),
      nEnqueues_(stats().addCounter("enqueue_calls")),
      nDescs_(stats().addCounter("descriptors")),
      nPins_(stats().addCounter("pages_pinned")),
      nUnpins_(stats().addCounter("pages_unpinned")),
      nRejects_(stats().addCounter("rejects"))
{
}

DmaProtection::Handle
DmaProtection::registerRing(CdnaNic &nic, CdnaNic::ContextId cxt,
                            mem::DomainId dom, bool is_tx)
{
    auto rs = std::make_unique<RingState>();
    rs->nic = &nic;
    rs->cxt = cxt;
    rs->dom = dom;
    rs->isTx = is_tx;
    rings_.push_back(std::move(rs));
    return static_cast<Handle>(rings_.size() - 1);
}

DmaProtection::RingState &
DmaProtection::state(Handle h)
{
    SIM_ASSERT(h < rings_.size(), "bad protection handle");
    return *rings_[h];
}

std::uint64_t
DmaProtection::stamp(RingState &rs)
{
    std::uint64_t s = rs.nextSeqno++;
    std::uint64_t m = rs.nic->params().seqnoModulus;
    return m ? s % m : s;
}

std::uint64_t
DmaProtection::lazyUnpin(RingState &rs)
{
    std::uint32_t consumer = rs.nic->consumer(rs.cxt, rs.isTx);
    std::uint64_t pages = 0;
    while (rs.unpinnedUpTo != consumer && !rs.pinned.empty())
        pages += unpinFront(rs);
    nUnpins_.inc(pages);
    return pages;
}

std::uint64_t
DmaProtection::unpinFront(RingState &rs)
{
    std::uint64_t pages = 0;
    mem::forEachSgPage(rs.pinned.front(), [&](mem::PageNum p) {
        hv_.mem().putRef(p);
        ++pages;
        return true;
    });
    rs.pinned.pop_front();
    ++rs.unpinnedUpTo;
    return pages;
}

DmaProtection::Result
DmaProtection::doEnqueue(RingState &rs, std::vector<Request> &reqs,
                         bool validate)
{
    Result res;
    if (!rs.nic->contextAllocated(rs.cxt)) {
        // The context was revoked while this enqueue was queued behind
        // the hypercall (or vcpu) delay: its rings no longer exist, so
        // the whole batch faults without touching NIC state.
        res.fault = vmm::Fault::kBadContext;
        res.producer = rs.producer;
        return res;
    }
    nic::DescRing &ring = rs.nic->ring(rs.cxt, rs.isTx);
    auto &memory = hv_.mem();

    for (auto &req : reqs) {
        // Ring-full check against descriptors not yet consumed.
        if (rs.producer - rs.nic->consumer(rs.cxt, rs.isTx) >= ring.size()) {
            res.fault = vmm::Fault::kRingFull;
            break;
        }

        if (validate) {
            // Owned or grant-mapped (driver domain enqueueing guests'
            // granted packet pages).
            bool owned = mem::forEachSgPage(req.sg, [&](mem::PageNum p) {
                return memory.dmaAccessibleBy(p, rs.dom);
            });
            if (!owned) {
                nRejects_.inc();
                hv_.recordFault(rs.dom, vmm::Fault::kNotOwner);
                res.fault = vmm::Fault::kNotOwner;
                break;
            }
            // Pin every page for the lifetime of the DMA.
            mem::forEachSgPage(req.sg, [&](mem::PageNum p) {
                memory.getRef(p);
                nPins_.inc();
                return true;
            });
            rs.pinned.push_back(req.sg);
        } else {
            // Track positions so unpin accounting stays aligned even
            // though nothing was pinned.
            rs.pinned.push_back({});
        }

        nic::DmaDescriptor desc;
        desc.sg = req.sg;
        desc.flags = nic::kDescValid | (rs.isTx ? nic::kDescEop : 0u);
        if (validate)
            desc.seqno = stamp(rs);
        ring.write(rs.producer, desc);
        if (req.pkt.has_value())
            ring.attachPacket(rs.producer, std::move(*req.pkt));
        ++rs.producer;
        ++res.accepted;
        nDescs_.inc();
    }
    res.producer = rs.producer;
    return res;
}

void
DmaProtection::enqueue(Handle h, std::vector<Request> reqs,
                       std::function<void(Result)> done)
{
    SIM_ASSERT(enabled_, "protected enqueue with protection disabled");
    nEnqueues_.inc();
    RingState &rs = state(h);

    // Cost: validate + pin each referenced page, stamp/copy each
    // descriptor, and the lazy unpin of completed descriptors.
    std::uint64_t pages = 0;
    for (const auto &r : reqs)
        pages += mem::sgPages(r.sg);

    // Estimate unpin volume for costing (actual unpin happens in body).
    std::uint64_t to_unpin =
        rs.nic->consumer(rs.cxt, rs.isTx) - rs.unpinnedUpTo;

    sim::Time cost =
        static_cast<sim::Time>(pages) *
            (costs_.protValidatePerPage + costs_.protPinPerPage) +
        static_cast<sim::Time>(reqs.size()) * costs_.protEnqueuePerDesc +
        static_cast<sim::Time>(to_unpin) * costs_.protUnpinPerPage;

    CDNA_TRACE_SPAN_ARG(ctx().tracer(), traceLane(), "enqueue", now(),
                        cost, "descriptors", reqs.size());
    hv_.hypercall(cost,
                  [this, h, reqs = std::move(reqs),
                   done = std::move(done)]() mutable {
        RingState &ring_state = state(h);
        lazyUnpin(ring_state);
        Result res = doEnqueue(ring_state, reqs, /*validate=*/true);
        if (done)
            done(res);
    });
}

DmaProtection::Result
DmaProtection::enqueueDirect(Handle h, std::vector<Request> reqs)
{
    nEnqueues_.inc();
    RingState &rs = state(h);
    // No validation, no pinning, no sequence numbers: the guest writes
    // the ring itself.  Positions are still tracked for completion
    // bookkeeping.
    Result res = doEnqueue(rs, reqs, /*validate=*/false);
    lazyUnpin(rs); // no-op pins, but advances unpin bookkeeping
    return res;
}

void
DmaProtection::syncUnpin(Handle h)
{
    lazyUnpin(state(h));
}

void
DmaProtection::unpinAll(Handle h)
{
    RingState &rs = state(h);
    std::uint64_t pages = 0;
    while (!rs.pinned.empty())
        pages += unpinFront(rs);
    nUnpins_.inc(pages);
}

} // namespace cdna::core
