#include "mem/phys_memory.hh"

#include <algorithm>
#include <utility>

#include "sim/assert.hh"

namespace cdna::mem {

PhysMemory::PhysMemory(sim::SimContext &ctx, std::string name,
                       std::uint64_t total_pages)
    : sim::SimObject(ctx, std::move(name)),
      pages_(total_pages),
      nAllocs_(stats().addCounter("allocs")),
      nReleases_(stats().addCounter("releases")),
      nDeferredReleases_(stats().addCounter("deferred_releases")),
      nDmaAccesses_(stats().addCounter("dma_accesses")),
      nViolations_(stats().addCounter("dma_violations"))
{
    freeList_.reserve(total_pages);
    // Allocate ascending page numbers first: push in reverse.
    for (std::uint64_t p = total_pages; p-- > 0;)
        freeList_.push_back(p);
}

PhysMemory::PageInfo &
PhysMemory::info(PageNum page)
{
    SIM_ASSERT(page < pages_.size(), "page out of range");
    return pages_[page];
}

const PhysMemory::PageInfo &
PhysMemory::info(PageNum page) const
{
    SIM_ASSERT(page < pages_.size(), "page out of range");
    return pages_[page];
}

std::vector<PageNum>
PhysMemory::alloc(DomainId dom, std::uint64_t n)
{
    std::vector<PageNum> out;
    if (freeList_.size() < n)
        return out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        PageNum p = freeList_.back();
        freeList_.pop_back();
        PageInfo &pi = info(p);
        SIM_ASSERT(pi.owner == kDomFree, "free-list page not free");
        SIM_ASSERT(pi.refs == 0, "free-list page still pinned");
        pi.owner = dom;
        pi.pendingFree = false;
        out.push_back(p);
        nAllocs_.inc();
    }
    return out;
}

PageNum
PhysMemory::allocOne(DomainId dom)
{
    auto v = alloc(dom, 1);
    if (v.empty())
        SIM_PANIC("out of physical memory");
    return v[0];
}

bool
PhysMemory::release(PageNum page)
{
    PageInfo &pi = info(page);
    SIM_ASSERT(pi.owner != kDomFree, "releasing a free page");
    nReleases_.inc();
    if (pi.refs > 0) {
        // Deferred: the page is the source/target of an outstanding DMA.
        pi.pendingFree = true;
        nDeferredReleases_.inc();
        return false;
    }
    pi.owner = kDomFree;
    pi.pendingFree = false;
    freeList_.push_back(page);
    return true;
}

DomainId
PhysMemory::ownerOf(PageNum page) const
{
    return info(page).owner;
}

bool
PhysMemory::ownedBy(PageNum page, DomainId dom) const
{
    if (page >= pages_.size())
        return false;
    return pages_[page].owner == dom;
}

void
PhysMemory::getRef(PageNum page)
{
    ++info(page).refs;
}

void
PhysMemory::putRef(PageNum page)
{
    PageInfo &pi = info(page);
    SIM_ASSERT(pi.refs > 0, "putRef on unpinned page");
    if (--pi.refs == 0 && pi.pendingFree) {
        pi.owner = kDomFree;
        pi.pendingFree = false;
        freeList_.push_back(page);
    }
}

std::uint32_t
PhysMemory::refCount(PageNum page) const
{
    return info(page).refs;
}

void
PhysMemory::transferOwnership(PageNum page, DomainId to)
{
    PageInfo &pi = info(page);
    SIM_ASSERT(pi.refs == 0, "flipping a pinned page");
    SIM_ASSERT(pi.owner != kDomFree, "flipping a free page");
    pi.owner = to;
}

bool
PhysMemory::releasePending(PageNum page) const
{
    return info(page).pendingFree;
}

bool
PhysMemory::dmaAccessibleBy(PageNum page, DomainId dom) const
{
    if (page >= pages_.size())
        return false;
    const PageInfo &pi = pages_[page];
    return pi.owner == dom || (pi.mapCount > 0 && pi.mapper == dom);
}

void
PhysMemory::noteGrantMapped(PageNum page, DomainId mapper)
{
    PageInfo &pi = info(page);
    SIM_ASSERT(pi.mapCount == 0 || pi.mapper == mapper,
               "page grant-mapped by two domains");
    pi.mapper = mapper;
    ++pi.mapCount;
}

void
PhysMemory::clearGrantMapped(PageNum page)
{
    PageInfo &pi = info(page);
    SIM_ASSERT(pi.mapCount > 0, "clearing unmapped grant");
    if (--pi.mapCount == 0)
        pi.mapper = kDomInvalid;
}

bool
PhysMemory::noteDmaAccess(PageNum page, DomainId dom, bool write)
{
    nDmaAccesses_.inc();
    if (page >= pages_.size()) {
        nViolations_.inc();
        violations_.push_back({page, dom, kDomInvalid, write, now()});
        return false;
    }
    const PageInfo &pi = pages_[page];
    if (pi.owner != dom && !(pi.mapCount > 0 && pi.mapper == dom)) {
        nViolations_.inc();
        violations_.push_back({page, dom, pi.owner, write, now()});
        warn("DMA %s violation: page %llu owner=%u on behalf of %u",
             write ? "write" : "read",
             static_cast<unsigned long long>(page), pi.owner, dom);
        return false;
    }
    return true;
}

} // namespace cdna::mem
