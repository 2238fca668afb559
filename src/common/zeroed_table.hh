/**
 * @file
 * Growable flat table whose untouched slots cost no resident memory.
 *
 * The simulator keeps a per-row table indexed by a right-operand row
 * id: the prefetcher's RowState. It is sized by B's row count, yet one
 * run — one shard of a sharded SpGEMM above all — touches only the B
 * rows its left block references. ZeroedTable backs such a table with
 * calloc: large requests come from fresh zero pages that become
 * resident only when a slot is first written, so no initialization
 * pass faults in the rest. The all-zero bit pattern must therefore be
 * the element's "never seen" state (every user's epoch 0).
 *
 * Growth copies the existing slots into a fresh zeroed block, and the
 * table is freed by release() or with its owner. calloc bypasses the
 * operator new override through which test binaries count heap
 * traffic, so grow() bumps allochook::counter() itself: growth inside
 * the cycle loop trips the zero-allocation check like any other
 * allocation.
 */

#ifndef SPARCH_COMMON_ZEROED_TABLE_HH
#define SPARCH_COMMON_ZEROED_TABLE_HH

#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>

#include "common/alloc_hook.hh"

namespace sparch
{

/** Flat array of T, zero-filled on allocation and on growth. */
template <typename T>
class ZeroedTable
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "slots are created by zero-filling and copied bytewise");

  public:
    std::size_t size() const { return size_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    /** Grow to `n` slots, keeping existing ones; no-op if not larger. */
    void
    grow(std::size_t n)
    {
        if (n <= size_)
            return;
        allochook::counter().fetch_add(1, std::memory_order_relaxed);
        T *fresh = static_cast<T *>(std::calloc(n, sizeof(T)));
        if (fresh == nullptr)
            throw std::bad_alloc();
        if (size_ > 0)
            std::memcpy(static_cast<void *>(fresh), data_.get(),
                        size_ * sizeof(T));
        data_.reset(fresh);
        size_ = n;
    }

    /** Free every slot; the table is empty until it grows again. */
    void
    release()
    {
        data_.reset();
        size_ = 0;
    }

    /** Return every slot to the all-zero state. */
    void
    zero()
    {
        if (size_ > 0)
            std::memset(static_cast<void *>(data_.get()), 0,
                        size_ * sizeof(T));
    }

  private:
    struct Free
    {
        void operator()(T *p) const { std::free(p); }
    };

    std::unique_ptr<T[], Free> data_;
    std::size_t size_ = 0;
};

} // namespace sparch

#endif // SPARCH_COMMON_ZEROED_TABLE_HH
