/**
 * @file
 * Scatter/gather lists.
 *
 * Every frame carries the SG list of its host buffer from the stack to
 * the descriptor ring, so the list is built, moved and dropped once per
 * frame.  A frame of at most 1500 bytes, or an RX buffer, spans no more
 * than two pages, so an SgList holds two entries in the object itself
 * and only a longer list (a TSO segment: 64 KiB spans 17 pages) goes to
 * the heap.  An inline list copies and moves as one fixed-size copy of
 * its whole representation, never as a copy over a runtime length.
 */

#ifndef CDNA_MEM_SG_LIST_HH
#define CDNA_MEM_SG_LIST_HH

#include <algorithm>
#include <cstdint>
#include <initializer_list>

#include "mem/phys_memory.hh"

namespace cdna::mem {

/** One contiguous piece of a scatter/gather transfer. */
struct SgEntry
{
    PhysAddr addr = 0;
    std::uint32_t len = 0;
};

/** Scatter/gather list with two entries inline. */
class SgList
{
  public:
    /** Entries held without a heap allocation. */
    static constexpr std::uint32_t kInline = 2;

    SgList() = default;

    SgList(std::initializer_list<SgEntry> entries)
    {
        reserve(static_cast<std::uint32_t>(entries.size()));
        for (const SgEntry &e : entries)
            push_back(e);
    }

    SgList(const SgList &o)
    {
        if (!o.spilled()) {
            rep_ = o.rep_;
            return;
        }
        reserve(o.rep_.size);
        std::copy(o.begin(), o.end(), data());
        rep_.size = o.rep_.size;
    }

    SgList(SgList &&o) noexcept : rep_(o.rep_) { o.abandon(); }

    SgList &
    operator=(const SgList &o)
    {
        if (this != &o)
            *this = SgList(o);
        return *this;
    }

    SgList &
    operator=(SgList &&o) noexcept
    {
        if (this != &o) {
            release();
            rep_ = o.rep_;
            o.abandon();
        }
        return *this;
    }

    ~SgList() { release(); }

    std::uint32_t size() const { return rep_.size; }
    bool empty() const { return rep_.size == 0; }

    SgEntry *data() { return spilled() ? rep_.heap : rep_.inl; }
    const SgEntry *data() const { return spilled() ? rep_.heap : rep_.inl; }

    SgEntry *begin() { return data(); }
    SgEntry *end() { return data() + rep_.size; }
    const SgEntry *begin() const { return data(); }
    const SgEntry *end() const { return data() + rep_.size; }

    SgEntry &operator[](std::uint32_t i) { return data()[i]; }
    const SgEntry &operator[](std::uint32_t i) const { return data()[i]; }
    const SgEntry &front() const { return data()[0]; }

    void
    push_back(const SgEntry &e)
    {
        if (rep_.size == rep_.cap)
            reserve(2 * rep_.cap);
        data()[rep_.size++] = e;
    }

    /** Make room for @p n entries (spilling past kInline). */
    void
    reserve(std::uint32_t n)
    {
        if (n <= rep_.cap)
            return;
        auto *heap = new SgEntry[n];
        std::copy(begin(), end(), heap);
        release();
        rep_.heap = heap;
        rep_.cap = n;
    }

    /** Drop every entry; a spilled list keeps its storage. */
    void clear() { rep_.size = 0; }

  private:
    /** Trivially copyable, so an inline list copies in one piece. */
    struct Rep
    {
        union
        {
            SgEntry inl[kInline] = {};
            SgEntry *heap;
        };
        std::uint32_t size = 0;
        std::uint32_t cap = kInline; //!< kInline while inline
    };

    bool spilled() const { return rep_.cap != kInline; }

    void
    release()
    {
        if (spilled())
            delete[] rep_.heap;
    }

    /** After a move: empty, holding no storage. */
    void
    abandon()
    {
        if (spilled())
            rep_ = Rep{};
        else
            rep_.size = 0;
    }

    Rep rep_;
};

} // namespace cdna::mem

#endif // CDNA_MEM_SG_LIST_HH
