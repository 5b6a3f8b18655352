/**
 * @file
 * Discrete-event kernel: a single global-ordered event queue.
 *
 * All simulated hardware and software progress is expressed as callbacks
 * scheduled at absolute picosecond timestamps.  Events with equal
 * timestamps execute in scheduling order (FIFO), which together with the
 * deterministic Rng makes every run bit-reproducible for a given seed.
 *
 * The queue is the simulator's hot path: a full-system run schedules and
 * dispatches tens of millions of events.  Event state therefore lives in
 * pooled nodes held in fixed-size chunks that never move, addressed by
 * an intrusive 4-ary min-heap.  Scheduling reuses a free node instead of
 * allocating and moves the callback once, into its node; dispatch runs
 * the callback where it lies; a pop or a cancellation costs one sift;
 * and callbacks are stored in a small-buffer type so typical captures
 * never touch the heap.
 */

#ifndef CDNA_SIM_EVENT_QUEUE_HH
#define CDNA_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.hh"

namespace cdna::sim {

/** Opaque handle to a scheduled event, usable for cancellation. */
using EventId = std::uint64_t;

/** Sentinel returned for operations that scheduled nothing. */
inline constexpr EventId kInvalidEvent = 0;

/**
 * Move-only callable of signature void() with inline storage.
 *
 * Callables up to kInlineSize bytes (a few pointers and integers) are
 * stored inside the event node itself; larger ones, such as a closure
 * holding a Packet, fall back to a heap allocation.  This is the
 * drop-in replacement for the std::function the queue used to hold,
 * minus the per-schedule allocation.
 */
class InplaceCallback
{
  public:
    static constexpr std::size_t kInlineSize = 48;

    InplaceCallback() = default;

    template <typename F,
              typename = std::enable_if_t<!std::is_same_v<
                  std::decay_t<F>, InplaceCallback>>>
    InplaceCallback(F &&f) // NOLINT: implicit like std::function
    {
        using Fn = std::decay_t<F>;
        if constexpr (sizeof(Fn) <= kInlineSize &&
                      alignof(Fn) <= alignof(std::max_align_t) &&
                      std::is_nothrow_move_constructible_v<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            vt_ = inlineVtable<Fn>();
        } else {
            *reinterpret_cast<Fn **>(buf_) = new Fn(std::forward<F>(f));
            vt_ = heapVtable<Fn>();
        }
    }

    InplaceCallback(InplaceCallback &&o) noexcept { moveFrom(o); }

    InplaceCallback &
    operator=(InplaceCallback &&o) noexcept
    {
        if (this != &o) {
            reset();
            moveFrom(o);
        }
        return *this;
    }

    InplaceCallback(const InplaceCallback &) = delete;
    InplaceCallback &operator=(const InplaceCallback &) = delete;

    ~InplaceCallback() { reset(); }

    explicit operator bool() const { return vt_ != nullptr; }

    void operator()() { vt_->invoke(buf_); }

    void
    reset()
    {
        if (vt_) {
            vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

  private:
    struct VTable
    {
        void (*invoke)(void *);
        void (*move)(void *dst, void *src) noexcept;
        void (*destroy)(void *) noexcept;
    };

    template <typename Fn>
    static const VTable *
    inlineVtable()
    {
        static const VTable vt = {
            [](void *p) { (*static_cast<Fn *>(p))(); },
            [](void *dst, void *src) noexcept {
                ::new (dst) Fn(std::move(*static_cast<Fn *>(src)));
                static_cast<Fn *>(src)->~Fn();
            },
            [](void *p) noexcept { static_cast<Fn *>(p)->~Fn(); },
        };
        return &vt;
    }

    template <typename Fn>
    static const VTable *
    heapVtable()
    {
        static const VTable vt = {
            [](void *p) { (**static_cast<Fn **>(p))(); },
            [](void *dst, void *src) noexcept {
                *static_cast<Fn **>(dst) = *static_cast<Fn **>(src);
            },
            [](void *p) noexcept { delete *static_cast<Fn **>(p); },
        };
        return &vt;
    }

    void
    moveFrom(InplaceCallback &o) noexcept
    {
        vt_ = o.vt_;
        if (vt_) {
            vt_->move(buf_, o.buf_);
            o.vt_ = nullptr;
        }
    }

    alignas(std::max_align_t) unsigned char buf_[kInlineSize];
    const VTable *vt_ = nullptr;
};

/**
 * Min-heap event queue ordered by (time, insertion sequence).
 *
 * The queue owns the simulated clock: now() advances only as events are
 * dispatched (or explicitly via runUntil()'s horizon).  Scheduling in the
 * past is a simulator bug and panics.
 *
 * EventIds encode (generation << 32 | pool slot); taking an event out
 * of the heap bumps its node's generation, so a stale handle can never
 * cancel an unrelated later event that reuses the slot.
 *
 * Nodes live in chunks of kChunkNodes that are allocated whole and never
 * move, so runOne() invokes a callback in its node instead of moving it
 * out first.  The event leaves the heap and its handle goes stale before
 * the call (cancelling the running event fails); the node returns to the
 * free list after the call, also when the callback throws.
 */
class EventQueue
{
  public:
    using Callback = InplaceCallback;

    /** Nodes per pool chunk, the unit in which the pool grows. */
    static constexpr std::uint32_t kChunkNodes = 256;

    EventQueue() = default;
    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    Time now() const { return now_; }

    /**
     * Schedule @p fn to run @p delay after now.
     * @param delay  non-negative offset from the current time
     * @param fn     callback to invoke
     * @return a handle that can be passed to cancel()
     */
    EventId schedule(Time delay, Callback fn);

    /** Schedule @p fn at the absolute time @p when (>= now). */
    EventId scheduleAt(Time when, Callback fn)
    {
        return insert(when, nextSeq_++, fn);
    }

    /**
     * Take the FIFO position the next schedule would get, without
     * scheduling anything.  An event created now but armed later (the
     * successor in a time-ordered backlog) passes the number to
     * scheduleAt() and dispatches exactly where it would have if
     * scheduled now.
     */
    std::uint64_t reserveSeq() { return nextSeq_++; }

    /**
     * Schedule @p fn at @p when (>= now) under @p seq, a number taken
     * from reserveSeq(): among equal-time events it dispatches as if
     * scheduled when @p seq was reserved.
     */
    EventId scheduleAt(Time when, std::uint64_t seq, Callback fn);

    /**
     * Cancel a pending event.
     * @retval true the event was pending and is now cancelled
     * @retval false the handle was invalid, already fired, or cancelled
     */
    bool cancel(EventId id);

    /** True when no live events remain. */
    bool empty() const { return heap_.empty(); }

    /** Number of live (not-yet-fired, not-cancelled) events. */
    std::size_t pendingCount() const { return heap_.size(); }

    /** Timestamp of the next live event; horizon if none. */
    Time nextEventTime() const;

    /**
     * Dispatch the single next event, advancing the clock to it.
     * @retval true an event was dispatched
     * @retval false the queue was empty
     */
    bool runOne();

    /**
     * Dispatch all events with timestamp <= @p horizon, then advance the
     * clock to @p horizon.
     * @return the number of events dispatched
     */
    std::uint64_t runUntil(Time horizon);

    /** Dispatch events until the queue drains (or @p max_events fire). */
    std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

    /** Total number of events dispatched since construction. */
    std::uint64_t dispatchedCount() const { return dispatched_; }

  private:
    static constexpr std::uint32_t kNotInHeap = UINT32_MAX;
    static constexpr std::uint32_t kNoSlot = UINT32_MAX;

    /** Pooled per-event state; the ordering key lives in HeapEntry. */
    struct Node
    {
        std::uint32_t gen = 1;       //!< liveness generation (never 0)
        std::uint32_t heapIndex = kNotInHeap;
        std::uint32_t nextFree = kNoSlot; //!< free-list link while free
        Callback fn;
    };

    /**
     * One heap element, carrying its own (when, seq) ordering key so
     * sift comparisons stay within this contiguous array and never
     * dereference the pool (the dominant cost of an indirect heap).
     */
    struct HeapEntry
    {
        Time when;
        std::uint64_t seq;           //!< FIFO tie-break at equal times
        std::uint32_t slot;

        bool
        before(const HeapEntry &o) const
        {
            return when != o.when ? when < o.when : seq < o.seq;
        }
    };

    Node &
    node(std::uint32_t slot)
    {
        return chunks_[slot / kChunkNodes][slot % kChunkNodes];
    }

    /** Schedule @p fn, moving it once: from the caller's argument. */
    EventId insert(Time when, std::uint64_t seq, Callback &fn);
    void addChunk();
    void unlink(std::uint32_t slot);
    void release(std::uint32_t slot) noexcept;
    void heapErase(std::uint32_t pos);
    // Inlined into their callers so the moving entry stays in registers:
    // a 24-byte argument would pass through memory and stall on reload.
    [[gnu::always_inline]] void siftUp(std::uint32_t hole, HeapEntry e);
    [[gnu::always_inline]] void siftDown(std::uint32_t hole, HeapEntry e);
    void place(std::uint32_t pos, const HeapEntry &e);

    Time now_ = 0;
    std::uint64_t nextSeq_ = 1;
    std::uint64_t dispatched_ = 0;
    std::vector<std::unique_ptr<Node[]>> chunks_; //!< node storage
    std::uint32_t freeHead_ = kNoSlot; //!< first free slot
    std::vector<HeapEntry> heap_;      //!< 4-ary min-heap
};

} // namespace cdna::sim

#endif // CDNA_SIM_EVENT_QUEUE_HH
