/**
 * @file
 * Physical memory model: page ownership, reference counts, allocation.
 *
 * This is the substrate CDNA's DMA memory protection (paper section 3.3)
 * is built on.  Every 4 KB page has an owner domain and a reference
 * count.  The hypervisor pins pages (getRef) while they are the source or
 * target of an outstanding DMA; a page freed by its owner while pinned is
 * *deferred* and only returns to the free pool when the last reference
 * drops -- exactly the reallocation-delay rule of section 3.3.
 *
 * Payload contents are not simulated, but every DMA access is checked
 * against ownership at access time so corruption (a device touching a
 * page its requesting domain no longer owns) is detected and counted.
 *
 * State is kept only for the pages a run has touched, so a machine's
 * capacity costs nothing until its guests use it: fresh pages come from
 * a cursor in ascending order, released pages are reused last-in
 * first-out before any fresh page, and the per-page records grow on
 * demand.  A page past the records reads as free.
 */

#ifndef CDNA_MEM_PHYS_MEMORY_HH
#define CDNA_MEM_PHYS_MEMORY_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "sim/sim_object.hh"

namespace cdna::mem {

/** Identifier of a virtual machine / domain. */
using DomainId = std::uint32_t;

/** Owner value for pages in the hypervisor's free pool. */
inline constexpr DomainId kDomFree = 0xFFFFFFFFu;
/** Owner value for pages owned by the hypervisor itself. */
inline constexpr DomainId kDomHypervisor = 0xFFFFFFFEu;
/** Sentinel for "no domain". */
inline constexpr DomainId kDomInvalid = 0xFFFFFFFDu;

/** Physical page frame number. */
using PageNum = std::uint64_t;
/** Physical byte address. */
using PhysAddr = std::uint64_t;

inline constexpr std::uint64_t kPageSize = 4096;
inline constexpr std::uint64_t kPageShift = 12;

/** Page frame number containing @p addr. */
constexpr PageNum
pageOf(PhysAddr addr)
{
    return addr >> kPageShift;
}

/** First byte address of page @p page. */
constexpr PhysAddr
addrOf(PageNum page)
{
    return page << kPageShift;
}

/**
 * The machine's physical memory: a page-granular ownership map with
 * reference counting and a frame allocator that hands out released
 * pages (last released first) before fresh ones (ascending).
 */
class PhysMemory : public sim::SimObject
{
  public:
    /** Record of one detected DMA protection violation. */
    struct Violation
    {
        PageNum page;
        DomainId expected;  //!< domain the DMA was performed on behalf of
        DomainId actual;    //!< owner of the page at access time
        bool write;
        sim::Time when;
    };

    PhysMemory(sim::SimContext &ctx, std::string name,
               std::uint64_t total_pages);

    std::uint64_t freePages() const
    {
        return released_.size() + (capacity_ - cursor_);
    }

    /**
     * Allocate @p n pages to @p dom from the free pool.
     * @return the allocated page numbers (empty if insufficient memory)
     */
    std::vector<PageNum> alloc(DomainId dom, std::uint64_t n);

    /**
     * Allocate @p n pages to @p dom, or throw std::runtime_error naming
     * the domain, the pages asked for and the pages free.  For the pages
     * a guest is built and started with: running out of those means the
     * configuration holds more guests than the machine's memory, a user
     * error rather than a simulator bug.
     */
    std::vector<PageNum> allocOrThrow(DomainId dom, std::uint64_t n);

    /** Allocate a single page (throws like allocOrThrow). */
    PageNum allocOne(DomainId dom);

    /**
     * Release a page back toward the free pool.  If the page is pinned
     * (refcount > 0), the release is deferred until the count drops to
     * zero; the page keeps its owner until then.
     * @retval true the page entered the free pool immediately
     * @retval false the release was deferred (page was pinned)
     */
    bool release(PageNum page);

    /** Owner of @p page. */
    DomainId ownerOf(PageNum page) const;

    /** True when @p page is owned by @p dom (not freed, not foreign). */
    bool ownedBy(PageNum page, DomainId dom) const;

    /**
     * True when @p dom may legitimately DMA to/from @p page: it owns
     * the page, or the page is currently grant-mapped into it (the Xen
     * driver domain driving DMA on guests' granted packet pages).
     */
    bool dmaAccessibleBy(PageNum page, DomainId dom) const;

    /** Pin a page for DMA; increments its reference count. */
    void getRef(PageNum page);

    /** Unpin; completes a deferred release when the count drops to 0. */
    void putRef(PageNum page);

    std::uint32_t refCount(PageNum page) const;

    /**
     * Directly change a page's owner (Xen page flipping).  The page must
     * not be pinned -- flipping a page under outstanding DMA is exactly
     * the corruption CDNA's protection prevents, and the Xen software
     * path never does it.
     */
    void transferOwnership(PageNum page, DomainId to);

    /** True if release() was called while pinned and is still pending. */
    bool releasePending(PageNum page) const;

    /**
     * Mark @p page as grant-mapped into @p mapper's address space (the
     * Xen driver domain mapping a guest's packet pages).  DMA on behalf
     * of the mapper is then legal for this page.  Reference-counted for
     * nested grants of the same page.
     */
    void noteGrantMapped(PageNum page, DomainId mapper);

    /** Remove one grant mapping of @p page. */
    void clearGrantMapped(PageNum page);

    /**
     * Record a DMA access to @p page performed on behalf of @p dom.
     * Ownership is checked at access time; mismatches are counted and
     * reported (they model real memory corruption / disclosure).
     * @retval true the access was safe
     */
    bool noteDmaAccess(PageNum page, DomainId dom, bool write);

    /** All violations detected so far (for tests and reports). */
    const std::vector<Violation> &violations() const { return violations_; }

    std::uint64_t violationCount() const { return nViolations_.value(); }

  private:
    struct PageInfo
    {
        DomainId owner = kDomFree;
        std::uint32_t refs = 0;
        bool pendingFree = false;
        DomainId mapper = kDomInvalid; //!< grant-mapped into this domain
        std::uint16_t mapCount = 0;
    };

    /** Record of @p page for reading (a free one if never touched). */
    const PageInfo &info(PageNum page) const;
    /** Record of @p page for writing; grows the records to cover it. */
    PageInfo &touch(PageNum page);

    std::uint64_t capacity_;
    PageNum cursor_ = 0;            //!< pages from here on never allocated
    std::vector<PageInfo> pages_;   //!< grows on demand; past it is free
    std::vector<PageNum> released_; //!< free pages below cursor_, LIFO
    std::vector<Violation> violations_;

    sim::Counter nAllocs_{stats(), "allocs"};
    sim::Counter nReleases_{stats(), "releases"};
    sim::Counter nDeferredReleases_{stats(), "deferred_releases"};
    sim::Counter nDmaAccesses_{stats(), "dma_accesses"};
    sim::Counter nViolations_{stats(), "dma_violations"};
};

} // namespace cdna::mem

#endif // CDNA_MEM_PHYS_MEMORY_HH
