#include "sim/event_queue.hh"

#include <limits>
#include <utility>

#include "sim/assert.hh"

namespace cdna::sim {

namespace {

constexpr std::uint32_t kSlotMask = 0xFFFFFFFFu;

constexpr EventId
makeId(std::uint32_t gen, std::uint32_t slot)
{
    return (static_cast<EventId>(gen) << 32) | slot;
}

} // namespace

EventId
EventQueue::schedule(Time delay, Callback fn)
{
    SIM_ASSERT(delay >= 0, "negative event delay");
    return insert(now_ + delay, nextSeq_++, fn);
}

EventId
EventQueue::scheduleAt(Time when, std::uint64_t seq, Callback fn)
{
    SIM_ASSERT(seq < nextSeq_, "sequence number was never reserved");
    return insert(when, seq, fn);
}

EventId
EventQueue::insert(Time when, std::uint64_t seq, Callback &fn)
{
    SIM_ASSERT(when >= now_, "scheduling into the past");
    if (freeHead_ == kNoSlot)
        addChunk();
    const std::uint32_t slot = freeHead_;
    Node &n = node(slot);
    freeHead_ = n.nextFree;
    n.fn = std::move(fn);
    // Carry the entry up from a hole at the end, in registers: an entry
    // written there and read straight back stalls on the store.
    const auto hole = static_cast<std::uint32_t>(heap_.size());
    heap_.emplace_back();
    siftUp(hole, HeapEntry{when, seq, slot});
    return makeId(n.gen, slot);
}

bool
EventQueue::cancel(EventId id)
{
    std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (gen == 0 || slot >= chunks_.size() * kChunkNodes)
        return false;
    Node &n = node(slot);
    if (n.gen != gen || n.heapIndex == kNotInHeap)
        return false;
    unlink(slot);
    release(slot);
    return true;
}

Time
EventQueue::nextEventTime() const
{
    if (heap_.empty())
        return std::numeric_limits<Time>::max();
    return heap_.front().when;
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    const Time when = heap_.front().when;
    const std::uint32_t slot = heap_.front().slot;
    SIM_ASSERT(when >= now_, "event queue time went backwards");
    now_ = when;
    ++dispatched_;
    // Run the callback in its node.  The node is off the heap and off
    // the free list meanwhile, so the callback may schedule (even grow
    // the pool: chunks never move) and cancel freely; the node is freed
    // once the call returns or throws.
    unlink(slot);
    struct Release
    {
        EventQueue &q;
        std::uint32_t slot;
        ~Release() { q.release(slot); }
    } const freeAfterCall{*this, slot};
    node(slot).fn();
    return true;
}

std::uint64_t
EventQueue::runUntil(Time horizon)
{
    std::uint64_t n = 0;
    while (!heap_.empty() && heap_.front().when <= horizon) {
        runOne();
        ++n;
    }
    if (now_ < horizon)
        now_ = horizon;
    return n;
}

std::uint64_t
EventQueue::run(std::uint64_t max_events)
{
    std::uint64_t n = 0;
    while (n < max_events && runOne())
        ++n;
    return n;
}

void
EventQueue::addChunk()
{
    const std::size_t base = chunks_.size() * kChunkNodes;
    SIM_ASSERT(base + kChunkNodes <= kSlotMask, "event pool exhausted");
    auto chunk = std::make_unique<Node[]>(kChunkNodes);
    for (std::uint32_t i = 0; i + 1 < kChunkNodes; ++i)
        chunk[i].nextFree = static_cast<std::uint32_t>(base + i + 1);
    chunks_.push_back(std::move(chunk));
    freeHead_ = static_cast<std::uint32_t>(base);
}

void
EventQueue::unlink(std::uint32_t slot)
{
    Node &n = node(slot);
    heapErase(n.heapIndex);
    n.heapIndex = kNotInHeap;
    if (++n.gen == 0)
        n.gen = 1;
}

void
EventQueue::release(std::uint32_t slot) noexcept
{
    Node &n = node(slot);
    n.fn.reset();
    n.nextFree = freeHead_;
    freeHead_ = slot;
}

void
EventQueue::heapErase(std::uint32_t pos)
{
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    // The tail entry fills the hole, moving the one way it has to.
    if (pos > 0 && last.before(heap_[(pos - 1) / 4]))
        siftUp(pos, last);
    else
        siftDown(pos, last);
}

inline void
EventQueue::siftUp(std::uint32_t hole, HeapEntry e)
{
    while (hole > 0) {
        const std::uint32_t parent = (hole - 1) / 4;
        const HeapEntry p = heap_[parent];
        if (!e.before(p))
            break;
        place(hole, p);
        hole = parent;
    }
    place(hole, e);
}

inline void
EventQueue::siftDown(std::uint32_t hole, HeapEntry e)
{
    const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
        std::uint32_t first = hole * 4 + 1;
        if (first >= size)
            break;
        std::uint32_t last = first + 4 < size ? first + 4 : size;
        std::uint32_t best = first;
        for (std::uint32_t c = first + 1; c < last; ++c)
            if (heap_[c].before(heap_[best]))
                best = c;
        const HeapEntry b = heap_[best];
        if (!b.before(e))
            break;
        place(hole, b);
        hole = best;
    }
    place(hole, e);
}

void
EventQueue::place(std::uint32_t pos, const HeapEntry &e)
{
    heap_[pos] = e;
    node(e.slot).heapIndex = pos;
}

} // namespace cdna::sim
