/**
 * @file
 * Xen-style grant table: controlled inter-domain page sharing.
 *
 * The software I/O virtualization path (paper section 2.1) moves packets
 * between guest and driver domain with grants: a guest *grants* the
 * driver domain access to the pages holding a packet (TX), and received
 * packets are *transferred* (page-flipped) into the guest (RX).  This
 * model implements the ownership bookkeeping; the CPU cost of the
 * map/unmap/flip hypercalls is charged by the VMM layer.
 */

#ifndef CDNA_MEM_GRANT_TABLE_HH
#define CDNA_MEM_GRANT_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "mem/phys_memory.hh"
#include "sim/sim_object.hh"

namespace cdna::mem {

/** Handle naming one granted page. */
using GrantRef = std::uint64_t;

inline constexpr GrantRef kInvalidGrant = 0;

class GrantTable : public sim::SimObject
{
  public:
    GrantTable(sim::SimContext &ctx, std::string name, PhysMemory &mem);

    /**
     * Grant @p to access to @p page owned by @p from.
     * @return a grant reference, or kInvalidGrant if @p from does not
     *         own the page.
     */
    GrantRef grantAccess(DomainId from, DomainId to, PageNum page);

    /**
     * Map a granted page into @p mapper's address space.
     * Pins the page so it cannot be reallocated while mapped.
     * @return the page number, or an empty optional encoded as false
     */
    bool mapGrant(GrantRef ref, DomainId mapper, PageNum *page_out);

    /** Unmap a previously mapped grant (unpins). */
    bool unmapGrant(GrantRef ref, DomainId mapper);

    /** Revoke a grant entry; fails if still mapped. */
    bool endGrant(GrantRef ref, DomainId from);

    /**
     * Transfer (page-flip) @p page from @p from to @p to.
     * @retval true the flip happened
     */
    bool transferPage(DomainId from, DomainId to, PageNum page);

    /** Outcome of a bulk revocation. */
    struct RevokeStats
    {
        std::uint64_t revoked = 0;     //!< grant entries invalidated
        std::uint64_t quarantined = 0; //!< mapped pages quarantined
    };

    /**
     * Forcibly invalidate every grant issued *to* @p mapper (the
     * mapper crashed).  Entries stay in the table flagged revoked, so
     * a frontend replaying a pre-crash reference after the backend
     * restarts is rejected (use-after-revoke) while the granter can
     * still endGrant() to reclaim.  Pages that were mapped when the
     * crash hit may still be referenced by in-flight DMA, so their
     * pins are *not* dropped: they enter quarantine and stay
     * unreusable until drainQuarantine() runs after the DMA engine
     * drains.
     */
    RevokeStats revokeMappingsOf(DomainId mapper);

    /** Release quarantined pages (the DMA engine has drained). */
    std::uint64_t drainQuarantine();

    std::uint64_t activeGrants() const { return live_; }
    std::uint64_t flipCount() const { return nFlips_.value(); }
    std::uint64_t quarantinedPages() const { return quarantine_.size(); }
    std::uint64_t revokedGrants() const { return nRevoked_.value(); }
    std::uint64_t
    quarantineAdmissions() const
    {
        return nQuarantined_.value();
    }
    std::uint64_t
    quarantineReleases() const
    {
        return nQuarReleased_.value();
    }
    std::uint64_t useAfterRevoke() const { return nUseAfterRevoke_.value(); }

  private:
    struct Entry
    {
        GrantRef ref = kInvalidGrant; //!< kInvalidGrant: a free slot
        DomainId from = 0;
        DomainId to = 0;
        PageNum page = 0;
        bool mapped = false;
        bool revoked = false;
    };

    /** The live entry for @p ref, or null. */
    Entry *find(GrantRef ref);
    void insert(const Entry &e);
    void erase(Entry &e);

    PhysMemory &mem_;
    GrantRef nextRef_ = 1;
    /**
     * Live entries, open addressing with linear probing from slot
     * ref & (size - 1), at most half full.  A grant lives for one
     * frame's transfer, so a node per grant would cost an allocation
     * per frame; references are issued in increasing order, so the
     * window of live ones rarely collides.
     */
    std::vector<Entry> slots_;
    std::size_t live_ = 0;
    static constexpr std::size_t kInitialSlots = 64;
    /** Pages still pinned on behalf of a crashed mapper's DMA. */
    std::vector<PageNum> quarantine_;

    sim::Counter nGrants_{stats(), "grants"};
    sim::Counter nMaps_{stats(), "maps"};
    sim::Counter nFlips_{stats(), "flips"};
    sim::Counter nDenied_{stats(), "denied"};
    sim::Counter nRevoked_{stats(), "revoked"};
    sim::Counter nQuarantined_{stats(), "quarantined"};
    sim::Counter nQuarReleased_{stats(), "quarantine_released"};
    sim::Counter nUseAfterRevoke_{stats(), "use_after_revoke"};
};

} // namespace cdna::mem

#endif // CDNA_MEM_GRANT_TABLE_HH
