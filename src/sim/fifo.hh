/**
 * @file
 * First-in first-out queue on a power-of-two ring.
 *
 * The datapath's queues (wire ports, staged and backlogged frames, vCPU
 * and hypervisor task queues, netfront/netback rings, switch ports)
 * push at the back and pop at the front at the frame rate.  A std::deque
 * used that way frees and reallocates one of its 512-byte blocks every
 * few pushes.  A Fifo keeps its storage and grows, doubling, only when
 * full, so a queue in steady state never touches the heap.
 */

#ifndef CDNA_SIM_FIFO_HH
#define CDNA_SIM_FIFO_HH

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/assert.hh"

namespace cdna::sim {

template <typename T>
class Fifo
{
    template <bool Const>
    class Iter;

  public:
    using value_type = T;
    using size_type = std::size_t;
    using iterator = Iter<false>;
    using const_iterator = Iter<true>;

    Fifo() = default;

    Fifo(Fifo &&o) noexcept
        : buf_(std::exchange(o.buf_, nullptr)),
          cap_(std::exchange(o.cap_, 0)),
          head_(std::exchange(o.head_, 0)),
          size_(std::exchange(o.size_, 0))
    {
    }

    Fifo &
    operator=(Fifo &&o) noexcept
    {
        if (this != &o) {
            release();
            buf_ = std::exchange(o.buf_, nullptr);
            cap_ = std::exchange(o.cap_, 0);
            head_ = std::exchange(o.head_, 0);
            size_ = std::exchange(o.size_, 0);
        }
        return *this;
    }

    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    ~Fifo() { release(); }

    bool empty() const { return size_ == 0; }
    size_type size() const { return size_; }

    /** The @p i-th element from the front. */
    T &operator[](size_type i) { return buf_[(head_ + i) & (cap_ - 1)]; }
    const T &
    operator[](size_type i) const
    {
        return buf_[(head_ + i) & (cap_ - 1)];
    }

    T &
    front()
    {
        SIM_ASSERT(size_ != 0, "empty Fifo");
        return (*this)[0];
    }
    const T &
    front() const
    {
        SIM_ASSERT(size_ != 0, "empty Fifo");
        return (*this)[0];
    }
    T &
    back()
    {
        SIM_ASSERT(size_ != 0, "empty Fifo");
        return (*this)[size_ - 1];
    }
    const T &
    back() const
    {
        SIM_ASSERT(size_ != 0, "empty Fifo");
        return (*this)[size_ - 1];
    }

    void push_back(const T &v) { emplace_back(v); }
    void push_back(T &&v) { emplace_back(std::move(v)); }

    /**
     * Construct an element at the back.  @p args may refer to an
     * element of this queue: when the ring is full, the new element is
     * built in the grown storage before the old storage goes away.
     */
    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == cap_)
            return growAndEmplace(std::forward<Args>(args)...);
        T *slot = &(*this)[size_];
        ::new (static_cast<void *>(slot)) T(std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void
    pop_front()
    {
        SIM_ASSERT(size_ != 0, "empty Fifo");
        std::destroy_at(&(*this)[0]);
        head_ = (head_ + 1) & (cap_ - 1);
        --size_;
    }

    void
    pop_back()
    {
        SIM_ASSERT(size_ != 0, "empty Fifo");
        std::destroy_at(&(*this)[size_ - 1]);
        --size_;
    }

    /** Destroy every element; the storage stays for reuse. */
    void
    clear()
    {
        if constexpr (!std::is_trivially_destructible_v<T>) {
            for (size_type i = 0; i < size_; ++i)
                std::destroy_at(&(*this)[i]);
        }
        head_ = 0;
        size_ = 0;
    }

    /** Front-to-back iteration. */
    iterator begin() { return {this, 0}; }
    iterator end() { return {this, size_}; }
    const_iterator begin() const { return {this, 0}; }
    const_iterator end() const { return {this, size_}; }

  private:
    /** First capacity: small enough for the many idle queues a large
     *  System builds, large enough to skip the first doublings. */
    static constexpr size_type kInitialCapacity = 8;

    template <bool Const>
    class Iter
    {
        using Owner = std::conditional_t<Const, const Fifo, Fifo>;

      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = T;
        using difference_type = std::ptrdiff_t;
        using pointer = std::conditional_t<Const, const T *, T *>;
        using reference = std::conditional_t<Const, const T &, T &>;

        Iter() = default;
        Iter(Owner *q, size_type i) : q_(q), i_(i) {}

        reference operator*() const { return (*q_)[i_]; }
        pointer operator->() const { return &(*q_)[i_]; }

        Iter &
        operator++()
        {
            ++i_;
            return *this;
        }
        Iter
        operator++(int)
        {
            Iter old = *this;
            ++i_;
            return old;
        }

        bool operator==(const Iter &o) const { return i_ == o.i_; }

      private:
        Owner *q_ = nullptr;
        size_type i_ = 0;
    };

    template <typename... Args>
    T &
    growAndEmplace(Args &&...args)
    {
        size_type cap = cap_ ? 2 * cap_ : kInitialCapacity;
        T *buf = std::allocator<T>().allocate(cap);
        T *slot = buf + size_;
        ::new (static_cast<void *>(slot)) T(std::forward<Args>(args)...);
        for (size_type i = 0; i < size_; ++i) {
            T &old = (*this)[i];
            ::new (static_cast<void *>(buf + i)) T(std::move(old));
            std::destroy_at(&old);
        }
        if (buf_)
            std::allocator<T>().deallocate(buf_, cap_);
        buf_ = buf;
        cap_ = cap;
        head_ = 0;
        ++size_;
        return *slot;
    }

    void
    release()
    {
        clear();
        if (buf_)
            std::allocator<T>().deallocate(buf_, cap_);
        buf_ = nullptr;
        cap_ = 0;
    }

    T *buf_ = nullptr;
    size_type cap_ = 0;  //!< zero or a power of two
    size_type head_ = 0; //!< slot of the front element
    size_type size_ = 0;
};

/**
 * Move every element of @p from, in order, to the back of @p to, and
 * leave @p from empty with its capacity for the next batch.
 * @return how many moved
 */
template <typename T>
std::uint32_t
moveAllInto(std::vector<T> &from, Fifo<T> &to)
{
    for (T &v : from)
        to.push_back(std::move(v));
    auto n = static_cast<std::uint32_t>(from.size());
    from.clear();
    return n;
}

} // namespace cdna::sim

#endif // CDNA_SIM_FIFO_HH
