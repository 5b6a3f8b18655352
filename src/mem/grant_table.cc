#include "mem/grant_table.hh"

#include <algorithm>
#include <utility>

namespace cdna::mem {

GrantTable::GrantTable(sim::SimContext &ctx, std::string name,
                       PhysMemory &mem)
    : sim::SimObject(ctx, std::move(name)),
      mem_(mem)
{
}

GrantTable::Entry *
GrantTable::find(GrantRef ref)
{
    if (slots_.empty() || ref == kInvalidGrant)
        return nullptr;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = ref & mask;; i = (i + 1) & mask) {
        if (slots_[i].ref == ref)
            return &slots_[i];
        if (slots_[i].ref == kInvalidGrant)
            return nullptr;
    }
}

void
GrantTable::insert(const Entry &e)
{
    if (2 * (live_ + 1) > slots_.size()) {
        std::vector<Entry> old = std::exchange(
            slots_, std::vector<Entry>(std::max<std::size_t>(
                        kInitialSlots, 2 * slots_.size())));
        live_ = 0;
        for (const Entry &o : old)
            if (o.ref != kInvalidGrant)
                insert(o);
    }
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = e.ref & mask;
    while (slots_[i].ref != kInvalidGrant)
        i = (i + 1) & mask;
    slots_[i] = e;
    ++live_;
}

void
GrantTable::erase(Entry &e)
{
    // Backward-shift deletion: pull later entries of the probe run
    // into the hole unless that would move one before its home slot.
    const std::size_t mask = slots_.size() - 1;
    auto hole = static_cast<std::size_t>(&e - slots_.data());
    for (std::size_t i = (hole + 1) & mask; slots_[i].ref != kInvalidGrant;
         i = (i + 1) & mask) {
        std::size_t home = slots_[i].ref & mask;
        if (((i - home) & mask) >= ((i - hole) & mask)) {
            slots_[hole] = slots_[i];
            hole = i;
        }
    }
    slots_[hole] = Entry{};
    --live_;
}

GrantRef
GrantTable::grantAccess(DomainId from, DomainId to, PageNum page)
{
    if (!mem_.ownedBy(page, from)) {
        nDenied_.inc();
        return kInvalidGrant;
    }
    GrantRef ref = nextRef_++;
    insert(Entry{ref, from, to, page});
    nGrants_.inc();
    return ref;
}

bool
GrantTable::mapGrant(GrantRef ref, DomainId mapper, PageNum *page_out)
{
    Entry *e = find(ref);
    if (!e || e->to != mapper || e->mapped) {
        nDenied_.inc();
        return false;
    }
    if (e->revoked) {
        // A reference the hypervisor force-revoked (backend crash)
        // must never become mappable again, even by the same domain
        // after it restarts.
        nUseAfterRevoke_.inc();
        nDenied_.inc();
        return false;
    }
    // Ownership may have changed since the grant was issued.
    if (!mem_.ownedBy(e->page, e->from)) {
        nDenied_.inc();
        return false;
    }
    e->mapped = true;
    mem_.getRef(e->page);
    mem_.noteGrantMapped(e->page, mapper);
    nMaps_.inc();
    if (page_out)
        *page_out = e->page;
    return true;
}

bool
GrantTable::unmapGrant(GrantRef ref, DomainId mapper)
{
    Entry *e = find(ref);
    if (!e || e->to != mapper || !e->mapped) {
        nDenied_.inc();
        return false;
    }
    e->mapped = false;
    mem_.clearGrantMapped(e->page);
    mem_.putRef(e->page);
    return true;
}

bool
GrantTable::endGrant(GrantRef ref, DomainId from)
{
    Entry *e = find(ref);
    if (!e || e->from != from || e->mapped) {
        nDenied_.inc();
        return false;
    }
    erase(*e);
    return true;
}

bool
GrantTable::transferPage(DomainId from, DomainId to, PageNum page)
{
    if (!mem_.ownedBy(page, from) || mem_.refCount(page) != 0) {
        nDenied_.inc();
        return false;
    }
    mem_.transferOwnership(page, to);
    nFlips_.inc();
    return true;
}

GrantTable::RevokeStats
GrantTable::revokeMappingsOf(DomainId mapper)
{
    // Only entries the dead domain actually MAPPED are revoked: an
    // unmapped grant still belongs to the granting guest, who replays
    // it to the restarted backend (the request survives in the shared
    // ring).  Process references in sorted order: quarantine insertion
    // order feeds the free list at drain time, and allocation order
    // must not depend on the table's slot order.
    std::vector<GrantRef> refs;
    for (const Entry &e : slots_)
        if (e.ref != kInvalidGrant && e.to == mapper && e.mapped &&
            !e.revoked)
            refs.push_back(e.ref);
    std::sort(refs.begin(), refs.end());

    RevokeStats rs;
    for (GrantRef ref : refs) {
        Entry &e = *find(ref);
        e.revoked = true;
        ++rs.revoked;
        nRevoked_.inc();
        e.mapped = false;
        // Keep both the pin and the DMA window: the physical NIC may
        // still be draining descriptors that reference this page on
        // behalf of the dead mapper, and that in-flight DMA must stay
        // legal until the quarantine drains.  Both are released only
        // by drainQuarantine().
        quarantine_.push_back(e.page);
        ++rs.quarantined;
        nQuarantined_.inc();
    }
    return rs;
}

std::uint64_t
GrantTable::drainQuarantine()
{
    std::uint64_t released = quarantine_.size();
    for (PageNum p : quarantine_) {
        mem_.clearGrantMapped(p);
        mem_.putRef(p);
        nQuarReleased_.inc();
    }
    quarantine_.clear();
    return released;
}

} // namespace cdna::mem
