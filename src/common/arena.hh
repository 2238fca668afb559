/**
 * @file
 * Monotonic per-run arena (bump allocator).
 *
 * One simulation (`SpArchSimulator::multiply`) allocates its hot-path
 * state — FIFO rings, prefetcher line arrays and demand-position
 * buffers — from a single Arena that is reset between multiplies. The
 * table indexed by B row id is the exception: it is a ZeroedTable
 * (common/zeroed_table.hh), sized once per round outside the cycle
 * loop and resident only where touched. Reset retains the high-water
 * chunk, so after a warmup run the steady
 * state performs zero heap allocations inside the cycle loop
 * (asserted in debug builds via common/alloc_hook.hh).
 *
 * Two allocation interfaces:
 *  - allocate()/alloc<T>()/allocArray<T>(): pure bump, freed only by
 *    reset(). For buffers whose lifetime is the whole run.
 *  - poolAlloc()/poolFree(): bump backed by per-size free lists, for
 *    blocks that are freed and re-requested inside the cycle loop
 *    (the prefetcher's growing demand-position buffers). Freed blocks
 *    are recycled without touching the heap.
 */

#ifndef SPARCH_COMMON_ARENA_HH
#define SPARCH_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace sparch
{

/** Chunked bump allocator with reset-and-reuse semantics. */
class Arena
{
  public:
    Arena() = default;

    ~Arena()
    {
        for (Chunk &c : chunks_)
            ::operator delete(c.mem);
    }

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /** Bump-allocate `bytes` (16-byte aligned); freed only by reset(). */
    void *
    allocate(std::size_t bytes)
    {
        bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
        if (bytes == 0)
            bytes = kAlign;
        if (active_ >= chunks_.size() ||
            cursor_ + bytes > chunks_[active_].size) {
            nextChunk(bytes);
        }
        void *p = static_cast<std::byte *>(chunks_[active_].mem) + cursor_;
        cursor_ += bytes;
        used_ += bytes;
        if (used_ > high_water_)
            high_water_ = used_;
        return p;
    }

    /** Typed uninitialized array; T must not need destruction. */
    template <typename T>
    T *
    alloc(std::size_t n)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "arena memory is never destructed");
        static_assert(alignof(T) <= kAlign, "over-aligned type");
        return static_cast<T *>(allocate(n * sizeof(T)));
    }

    /** Typed value-initialized array; T must not need destruction. */
    template <typename T>
    T *
    allocArray(std::size_t n)
    {
        T *p = alloc<T>(n);
        for (std::size_t i = 0; i < n; ++i)
            new (p + i) T();
        return p;
    }

    /** Bump allocation recyclable through poolFree(). */
    void *
    poolAlloc(std::size_t bytes)
    {
        const std::size_t cls = sizeClass(bytes);
        if (cls <= kClasses && free_[cls] != nullptr) {
            void *p = free_[cls];
            free_[cls] = *static_cast<void **>(p);
            return p;
        }
        return allocate(bytes);
    }

    /** Recycle a poolAlloc() block of the same size. */
    void
    poolFree(void *p, std::size_t bytes)
    {
        const std::size_t cls = sizeClass(bytes);
        if (cls <= kClasses) {
            *static_cast<void **>(p) = free_[cls];
            free_[cls] = p;
        }
        // Oversized blocks are bump garbage until the next reset().
    }

    /**
     * Drop all allocations but keep capacity. When the previous run
     * spilled into multiple chunks they are merged: freed now, and the
     * next allocation grabs one chunk covering their combined size, so
     * the arena converges to a single chunk sized to the working set.
     */
    void
    reset()
    {
        if (chunks_.size() > 1) {
            std::size_t total = 0;
            for (Chunk &c : chunks_) {
                total += c.size;
                ::operator delete(c.mem);
            }
            chunks_.clear();
            merge_hint_ = total;
        }
        active_ = 0;
        cursor_ = 0;
        used_ = 0;
        for (std::size_t i = 0; i <= kClasses; ++i)
            free_[i] = nullptr;
    }

    /** Lifetime count of chunk mallocs (steady-state must be flat). */
    std::uint64_t chunkAllocations() const { return chunk_allocs_; }

    /** Bytes currently allocated from the arena. */
    std::size_t bytesInUse() const { return used_; }

    /** Maximum bytesInUse() ever observed. */
    std::size_t highWater() const { return high_water_; }

  private:
    static constexpr std::size_t kAlign = 16;
    static constexpr std::size_t kClasses = 32; //!< 16B..512B free lists
    static constexpr std::size_t kMinChunk = 64 * 1024;

    struct Chunk
    {
        void *mem;
        std::size_t size;
    };

    static std::size_t
    sizeClass(std::size_t bytes)
    {
        return (bytes + kAlign - 1) / kAlign;
    }

    void
    nextChunk(std::size_t bytes)
    {
        // Reuse a retained later chunk when it fits.
        while (active_ + 1 < chunks_.size()) {
            ++active_;
            cursor_ = 0;
            if (bytes <= chunks_[active_].size)
                return;
        }
        std::size_t size = std::max(bytes, kMinChunk);
        if (!chunks_.empty())
            size = std::max(size, 2 * chunks_.back().size);
        size = std::max(size, merge_hint_);
        merge_hint_ = 0;
        chunks_.push_back(Chunk{::operator new(size), size});
        ++chunk_allocs_;
        active_ = chunks_.size() - 1;
        cursor_ = 0;
    }

    std::vector<Chunk> chunks_;
    std::size_t active_ = 0;
    std::size_t cursor_ = 0;
    std::size_t used_ = 0;
    std::size_t high_water_ = 0;
    std::size_t merge_hint_ = 0;
    std::uint64_t chunk_allocs_ = 0;
    void *free_[kClasses + 1] = {};
};

} // namespace sparch

#endif // SPARCH_COMMON_ARENA_HH
