/**
 * @file
 * Bounded hardware FIFO model.
 *
 * Every node of the merge tree "represents a FIFO on the hardware"
 * (Section II-A-3), and FIFOs also sit between the fetchers, multiplier
 * array and writer (Fig. 10). The model tracks occupancy high-water
 * marks and push/pop counts so CACTI-style SRAM energy can be derived
 * from access counts (Section III-A).
 *
 * The storage is a fixed-capacity ring that the FIFO owns and sizes at
 * construction: a FIFO never allocates afterwards, which is what lets
 * the merge tree's node FIFOs run the cycle loop without heap traffic.
 *
 * Bulk movers (the merge tree's level mergers) read and write the
 * ring directly through ringData()/headSlot()/tailSlot() on local
 * cursors and then account a whole batch at once with commitPops(n) /
 * commitPushes(n); the result equals n single pop()/push() calls.
 * High-water stays exact as long as one batch only pushes (occupancy
 * peaks at the batch's end) or only pops (occupancy never rises).
 */

#ifndef SPARCH_HW_FIFO_HH
#define SPARCH_HW_FIFO_HH

#include <cstddef>
#include <cstdint>
#include <memory>

#include "common/logging.hh"

namespace sparch
{
namespace hw
{

/** Bounded ring-buffer FIFO with access statistics. */
template <typename T>
class Fifo
{
  public:
    explicit Fifo(std::size_t capacity)
        : capacity_(capacity)
    {
        SPARCH_ASSERT(capacity_ > 0, "FIFO capacity must be positive");
        data_ = std::make_unique<T[]>(capacity_);
    }

    Fifo(Fifo &&) = default;
    Fifo &operator=(Fifo &&) = default;
    Fifo(const Fifo &) = delete;
    Fifo &operator=(const Fifo &) = delete;

    std::size_t capacity() const { return capacity_; }
    std::size_t size() const { return count_; }
    bool empty() const { return count_ == 0; }
    bool full() const { return count_ >= capacity_; }
    std::size_t freeSpace() const { return capacity_ - count_; }

    /** Push one item; caller must check !full(). */
    void
    push(const T &item)
    {
        SPARCH_DCHECK(!full(), "push to full FIFO");
        data_[tailSlot()] = item;
        ++count_;
        ++pushes_;
        if (count_ > high_water_)
            high_water_ = count_;
    }

    /** Front item; caller must check !empty(). */
    const T &
    front() const
    {
        SPARCH_DCHECK(!empty(), "front of empty FIFO");
        return data_[head_];
    }

    /** Mutable access to the most recently pushed item. */
    T &
    back()
    {
        SPARCH_DCHECK(!empty(), "back of empty FIFO");
        std::size_t idx = head_ + count_ - 1;
        if (idx >= capacity_)
            idx -= capacity_;
        return data_[idx];
    }

    /** Pop one item; caller must check !empty(). */
    T
    pop()
    {
        SPARCH_DCHECK(!empty(), "pop of empty FIFO");
        T item = data_[head_];
        if (++head_ == capacity_)
            head_ = 0;
        --count_;
        ++pops_;
        return item;
    }

    /** Ring storage (capacity() slots) for bulk movers. */
    T *ringData() { return data_.get(); }

    /** Ring slot of front(); meaningful while !empty(). */
    std::size_t headSlot() const { return head_; }

    /** Ring slot the next push() would write. */
    std::size_t
    tailSlot() const
    {
        const std::size_t idx = head_ + count_;
        return idx >= capacity_ ? idx - capacity_ : idx;
    }

    /**
     * Account n pops whose items the caller already read from the ring
     * slots headSlot(), headSlot() + 1, ... (wrapping).
     */
    void
    commitPops(std::size_t n)
    {
        SPARCH_DCHECK(n <= count_, "commit of ", n, " pops from a FIFO ",
                      "holding ", count_);
        head_ += n;
        if (head_ >= capacity_)
            head_ -= capacity_;
        count_ -= n;
        pops_ += n;
    }

    /**
     * Account n pushes whose items the caller already wrote to the ring
     * slots tailSlot(), tailSlot() + 1, ... (wrapping).
     */
    void
    commitPushes(std::size_t n)
    {
        SPARCH_DCHECK(n <= freeSpace(), "commit of ", n, " pushes to a ",
                      "FIFO with ", freeSpace(), " free");
        count_ += n;
        pushes_ += n;
        if (count_ > high_water_)
            high_water_ = count_;
    }

    /** Drop everything (end of a merge round). */
    void
    clear()
    {
        head_ = 0;
        count_ = 0;
    }

    /** Lifetime push count (SRAM write accesses). */
    std::uint64_t pushes() const { return pushes_; }

    /** Lifetime pop count (SRAM read accesses). */
    std::uint64_t pops() const { return pops_; }

    /** Maximum occupancy ever observed. */
    std::size_t highWater() const { return high_water_; }

  private:
    std::size_t capacity_;
    std::unique_ptr<T[]> data_;
    std::size_t head_ = 0;
    std::size_t count_ = 0;
    std::uint64_t pushes_ = 0;
    std::uint64_t pops_ = 0;
    std::size_t high_water_ = 0;
};

} // namespace hw
} // namespace sparch

#endif // SPARCH_HW_FIFO_HH
