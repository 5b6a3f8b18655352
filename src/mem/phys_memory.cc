#include "mem/phys_memory.hh"

#include <stdexcept>
#include <string>
#include <utility>

#include "sim/assert.hh"

namespace cdna::mem {

PhysMemory::PhysMemory(sim::SimContext &ctx, std::string name,
                       std::uint64_t total_pages)
    : sim::SimObject(ctx, std::move(name)),
      capacity_(total_pages)
{
}

const PhysMemory::PageInfo &
PhysMemory::info(PageNum page) const
{
    static constexpr PageInfo kUntouched{};
    SIM_ASSERT(page < capacity_, "page out of range");
    return page < pages_.size() ? pages_[page] : kUntouched;
}

PhysMemory::PageInfo &
PhysMemory::touch(PageNum page)
{
    SIM_ASSERT(page < capacity_, "page out of range");
    if (page >= pages_.size())
        pages_.resize(page + 1);
    return pages_[page];
}

std::vector<PageNum>
PhysMemory::alloc(DomainId dom, std::uint64_t n)
{
    std::vector<PageNum> out;
    if (freePages() < n)
        return out;
    out.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        PageNum p;
        if (released_.empty()) {
            p = cursor_++;
        } else {
            p = released_.back();
            released_.pop_back();
        }
        PageInfo &pi = touch(p);
        SIM_ASSERT(pi.owner == kDomFree, "free-list page not free");
        SIM_ASSERT(pi.refs == 0, "free-list page still pinned");
        pi.owner = dom;
        pi.pendingFree = false;
        out.push_back(p);
        nAllocs_.inc();
    }
    return out;
}

std::vector<PageNum>
PhysMemory::allocOrThrow(DomainId dom, std::uint64_t n)
{
    auto pages = alloc(dom, n);
    if (pages.empty() && n > 0)
        throw std::runtime_error(
            "out of simulated memory: domain " + std::to_string(dom) +
            " needs " + std::to_string(n) + (n == 1 ? " page, " : " pages, ") +
            std::to_string(freePages()) + " of " +
            std::to_string(capacity_) + " free");
    return pages;
}

PageNum
PhysMemory::allocOne(DomainId dom)
{
    return allocOrThrow(dom, 1)[0];
}

bool
PhysMemory::release(PageNum page)
{
    PageInfo &pi = touch(page);
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
    released_.push_back(page);
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
    return page < capacity_ && info(page).owner == dom;
}

void
PhysMemory::getRef(PageNum page)
{
    ++touch(page).refs;
}

void
PhysMemory::putRef(PageNum page)
{
    PageInfo &pi = touch(page);
    SIM_ASSERT(pi.refs > 0, "putRef on unpinned page");
    if (--pi.refs == 0 && pi.pendingFree) {
        pi.owner = kDomFree;
        pi.pendingFree = false;
        released_.push_back(page);
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
    PageInfo &pi = touch(page);
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
    if (page >= capacity_)
        return false;
    const PageInfo &pi = info(page);
    return pi.owner == dom || (pi.mapCount > 0 && pi.mapper == dom);
}

void
PhysMemory::noteGrantMapped(PageNum page, DomainId mapper)
{
    PageInfo &pi = touch(page);
    SIM_ASSERT(pi.mapCount == 0 || pi.mapper == mapper,
               "page grant-mapped by two domains");
    pi.mapper = mapper;
    ++pi.mapCount;
}

void
PhysMemory::clearGrantMapped(PageNum page)
{
    PageInfo &pi = touch(page);
    SIM_ASSERT(pi.mapCount > 0, "clearing unmapped grant");
    if (--pi.mapCount == 0)
        pi.mapper = kDomInvalid;
}

bool
PhysMemory::noteDmaAccess(PageNum page, DomainId dom, bool write)
{
    nDmaAccesses_.inc();
    if (page >= capacity_) {
        nViolations_.inc();
        violations_.push_back({page, dom, kDomInvalid, write, now()});
        return false;
    }
    const PageInfo &pi = info(page);
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
