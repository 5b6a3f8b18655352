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
      enabled_(enabled)
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

void
DmaProtection::lazyUnpin(RingState &rs)
{
    unpinUpTo(rs, rs.nic->consumer(rs.cxt, rs.isTx));
}

void
DmaProtection::unpinUpTo(RingState &rs, std::uint32_t end)
{
    if (!enabled_)
        return; // nothing was pinned
    std::uint64_t pages = 0;
    while (rs.unpinnedUpTo != end && rs.unpinnedUpTo != rs.producer) {
        const nic::DmaDescriptor &slot =
            rs.nic->ring(rs.cxt, rs.isTx).at(rs.unpinnedUpTo++);
        mem::forEachSgPage(slot.sg, [&](mem::PageNum p) {
            hv_.mem().putRef(p);
            ++pages;
            return true;
        });
    }
    nUnpins_.inc(pages);
}

DmaProtection::Result
DmaProtection::doEnqueue(RingState &rs, std::vector<Request> &reqs)
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

        nic::DmaDescriptor desc;
        desc.flags = nic::kDescValid | (rs.isTx ? nic::kDescEop : 0u);
        if (enabled_) {
            // The slot is the only record of its pins, so it must not
            // still hold any.
            SIM_ASSERT(rs.producer - rs.unpinnedUpTo < ring.size(),
                       "enqueue would overwrite a pinned descriptor");
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
            desc.seqno = stamp(rs);
        }
        desc.sg = std::move(req.sg);
        ring.write(rs.producer, std::move(desc));
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
    nEnqueues_.inc();
    RingState &rs = state(h);
    if (!enabled_) {
        Result res = doEnqueue(rs, reqs);
        if (done)
            done(res);
        return;
    }

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
        // Unpin up to the consumer doEnqueue's ring-full check reads,
        // so no slot it rewrites still holds pins.
        RingState &ring_state = state(h);
        lazyUnpin(ring_state);
        Result res = doEnqueue(ring_state, reqs);
        if (done)
            done(res);
    });
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
    unpinUpTo(rs, rs.producer);
}

} // namespace cdna::core
