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
    return scheduleAt(now_ + delay, std::move(fn));
}

EventId
EventQueue::scheduleAt(Time when, std::uint64_t seq, Callback fn)
{
    SIM_ASSERT(when >= now_, "scheduling into the past");
    SIM_ASSERT(seq < nextSeq_, "sequence number was never reserved");
    std::uint32_t slot;
    if (!free_.empty()) {
        slot = free_.back();
        free_.pop_back();
    } else {
        SIM_ASSERT(pool_.size() < kSlotMask, "event pool exhausted");
        slot = static_cast<std::uint32_t>(pool_.size());
        pool_.emplace_back();
    }
    Node &n = pool_[slot];
    n.fn = std::move(fn);
    n.heapIndex = static_cast<std::uint32_t>(heap_.size());
    heap_.push_back(HeapEntry{when, seq, slot});
    siftUp(n.heapIndex);
    return makeId(n.gen, slot);
}

bool
EventQueue::cancel(EventId id)
{
    std::uint32_t slot = static_cast<std::uint32_t>(id & kSlotMask);
    std::uint32_t gen = static_cast<std::uint32_t>(id >> 32);
    if (gen == 0 || slot >= pool_.size())
        return false;
    Node &n = pool_[slot];
    if (n.gen != gen || n.heapIndex == kNotInHeap)
        return false;
    heapRemove(n.heapIndex);
    freeNode(slot);
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
    const HeapEntry top = heap_.front();
    SIM_ASSERT(top.when >= now_, "event queue time went backwards");
    now_ = top.when;
    ++dispatched_;
    // Move the callback out and recycle the node *before* invoking, so
    // the callback is free to schedule new events into the slot.
    Callback fn = std::move(pool_[top.slot].fn);
    heapRemove(0);
    freeNode(top.slot);
    fn();
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
EventQueue::siftUp(std::uint32_t pos)
{
    const HeapEntry e = heap_[pos];
    while (pos > 0) {
        std::uint32_t parent = (pos - 1) / 4;
        if (!e.before(heap_[parent]))
            break;
        heap_[pos] = heap_[parent];
        pool_[heap_[pos].slot].heapIndex = pos;
        pos = parent;
    }
    heap_[pos] = e;
    pool_[e.slot].heapIndex = pos;
}

void
EventQueue::siftDown(std::uint32_t pos)
{
    const HeapEntry e = heap_[pos];
    const std::uint32_t size = static_cast<std::uint32_t>(heap_.size());
    for (;;) {
        std::uint32_t first = pos * 4 + 1;
        if (first >= size)
            break;
        std::uint32_t last = first + 4 < size ? first + 4 : size;
        std::uint32_t best = first;
        for (std::uint32_t c = first + 1; c < last; ++c)
            if (heap_[c].before(heap_[best]))
                best = c;
        if (!heap_[best].before(e))
            break;
        heap_[pos] = heap_[best];
        pool_[heap_[pos].slot].heapIndex = pos;
        pos = best;
    }
    heap_[pos] = e;
    pool_[e.slot].heapIndex = pos;
}

void
EventQueue::heapRemove(std::uint32_t pos)
{
    pool_[heap_[pos].slot].heapIndex = kNotInHeap;
    const HeapEntry last = heap_.back();
    heap_.pop_back();
    if (pos == heap_.size())
        return;
    heap_[pos] = last;
    pool_[last.slot].heapIndex = pos;
    // The replacement may need to move either way relative to pos.
    siftDown(pos);
    siftUp(pool_[last.slot].heapIndex);
}

void
EventQueue::freeNode(std::uint32_t slot)
{
    Node &n = pool_[slot];
    n.fn.reset();
    if (++n.gen == 0)
        n.gen = 1;
    free_.push_back(slot);
}

} // namespace cdna::sim
