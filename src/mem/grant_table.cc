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

GrantRef
GrantTable::grantAccess(DomainId from, DomainId to, PageNum page)
{
    if (!mem_.ownedBy(page, from)) {
        nDenied_.inc();
        return kInvalidGrant;
    }
    GrantRef ref = nextRef_++;
    entries_.emplace(ref, Entry{from, to, page, false});
    nGrants_.inc();
    return ref;
}

bool
GrantTable::mapGrant(GrantRef ref, DomainId mapper, PageNum *page_out)
{
    auto it = entries_.find(ref);
    if (it == entries_.end() || it->second.to != mapper ||
        it->second.mapped) {
        nDenied_.inc();
        return false;
    }
    if (it->second.revoked) {
        // A reference the hypervisor force-revoked (backend crash)
        // must never become mappable again, even by the same domain
        // after it restarts.
        nUseAfterRevoke_.inc();
        nDenied_.inc();
        return false;
    }
    // Ownership may have changed since the grant was issued.
    if (!mem_.ownedBy(it->second.page, it->second.from)) {
        nDenied_.inc();
        return false;
    }
    it->second.mapped = true;
    mem_.getRef(it->second.page);
    mem_.noteGrantMapped(it->second.page, mapper);
    nMaps_.inc();
    if (page_out)
        *page_out = it->second.page;
    return true;
}

bool
GrantTable::unmapGrant(GrantRef ref, DomainId mapper)
{
    auto it = entries_.find(ref);
    if (it == entries_.end() || it->second.to != mapper ||
        !it->second.mapped) {
        nDenied_.inc();
        return false;
    }
    it->second.mapped = false;
    mem_.clearGrantMapped(it->second.page);
    mem_.putRef(it->second.page);
    return true;
}

bool
GrantTable::endGrant(GrantRef ref, DomainId from)
{
    auto it = entries_.find(ref);
    if (it == entries_.end() || it->second.from != from ||
        it->second.mapped) {
        nDenied_.inc();
        return false;
    }
    entries_.erase(it);
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
    // must not depend on unordered_map iteration.
    std::vector<GrantRef> refs;
    for (const auto &[ref, e] : entries_)
        if (e.to == mapper && e.mapped && !e.revoked)
            refs.push_back(ref);
    std::sort(refs.begin(), refs.end());

    RevokeStats rs;
    for (GrantRef ref : refs) {
        Entry &e = entries_[ref];
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
