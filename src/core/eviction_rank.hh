/**
 * @file
 * Eviction ranking of the MatB row prefetcher: which cached row gives
 * up a line next.
 *
 * Every ranked row carries one key (its next use under Belady, an
 * inverted recency tick under LRU and FIFO); the victim is the row
 * with the largest (key, row) pair that the caller does not protect.
 * The ranking is re-keyed on every left-matrix element the prefetcher
 * sees, so it is a flat binary max-heap in a vector reserved outside
 * the cycle loop rather than an ordered tree. Re-keying a row pushes
 * a fresh entry and bumps the row's generation; entries of an older
 * generation (or of a row no longer ranked) are stale and dropped
 * when they reach the top. A full heap is compacted to its live
 * entries, at most one per ranked row, so the capacity only has to
 * exceed the number of rows that can be ranked at once.
 *
 * The caller keeps each row's Slot (key, generation, ranked flag) in
 * its own per-row table and hands the ranking a functor that maps a
 * row id to that Slot.
 */

#ifndef SPARCH_CORE_EVICTION_RANK_HH
#define SPARCH_CORE_EVICTION_RANK_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace sparch
{

/** Max-heap of (key, row) with lazily invalidated entries. */
class EvictionRank
{
  public:
    /** A row's ranking state, kept by the caller. */
    struct Slot
    {
        std::uint64_t key = 0; //!< key of the live entry
        std::uint32_t gen = 0; //!< generation of the live entry
        bool ranked = false;   //!< the row has a live entry
    };

    /**
     * Drop every entry and size the heap for at most `max_ranked`
     * rows ranked at once. Allocates only when the bound grows, so
     * call it outside the cycle loop.
     */
    void
    reset(std::size_t max_ranked)
    {
        heap_.clear();
        held_.clear();
        capacity_ = 2 * max_ranked + 2;
        heap_.reserve(capacity_);
        held_.reserve(capacity_);
    }

    /** Rank `row` under `key`; a no-op when it already is. */
    template <typename SlotOf>
    void
    rank(Index row, Slot &slot, std::uint64_t key, SlotOf &&slot_of)
    {
        if (slot.ranked && slot.key == key)
            return;
        if (heap_.size() == capacity_)
            compact(slot_of);
        slot.key = key;
        slot.ranked = true;
        ++slot.gen;
        heap_.push_back({key, row, slot.gen});
        std::push_heap(heap_.begin(), heap_.end(), Order{});
    }

    /** Take the row out of the ranking (its entry goes stale). */
    static void unrank(Slot &slot) { slot.ranked = false; }

    /**
     * The eviction victim, or -1. The first choice is the top-ranked
     * row that is neither `pinned` nor `demanded(row)`. When there is
     * none, or its key does not exceed `floor`, the fallback is the
     * top-ranked row that is not pinned, demanded or not. Either way
     * the victim's key must exceed `floor` when one is given. The
     * ranking is left as it was.
     */
    template <typename SlotOf, typename Demanded>
    SIndex
    victim(SlotOf &&slot_of, SIndex pinned, Demanded &&demanded,
           std::optional<std::uint64_t> floor)
    {
        const auto live = [&](const Entry &e) {
            const Slot &s = slot_of(e.row);
            return s.ranked && s.gen == e.gen;
        };
        const auto above = [&](const Entry &e) {
            return !floor || e.key > *floor;
        };
        // Live tops that are pinned or demanded are set aside in held_
        // (in descending order) and pushed back below.
        const Entry *first = nullptr;
        while (!heap_.empty()) {
            const Entry &top = heap_.front();
            if (!live(top)) {
                std::pop_heap(heap_.begin(), heap_.end(), Order{});
                heap_.pop_back();
                continue;
            }
            if (static_cast<SIndex>(top.row) != pinned &&
                !demanded(top.row)) {
                first = &top;
                break;
            }
            std::pop_heap(heap_.begin(), heap_.end(), Order{});
            held_.push_back(heap_.back());
            heap_.pop_back();
        }
        SIndex chosen = -1;
        if (first != nullptr && above(*first)) {
            chosen = first->row;
        } else {
            const auto fallback = std::find_if(
                held_.begin(), held_.end(), [&](const Entry &e) {
                    return static_cast<SIndex>(e.row) != pinned;
                });
            if (fallback != held_.end())
                first = &*fallback;
            if (first != nullptr && above(*first))
                chosen = first->row;
        }
        for (const Entry &e : held_) {
            heap_.push_back(e);
            std::push_heap(heap_.begin(), heap_.end(), Order{});
        }
        held_.clear();
        return chosen;
    }

  private:
    struct Entry
    {
        std::uint64_t key;
        Index row;
        std::uint32_t gen;
    };

    /** Heap order: (key, row) pairs, largest on top. */
    struct Order
    {
        bool
        operator()(const Entry &x, const Entry &y) const
        {
            return x.key != y.key ? x.key < y.key : x.row < y.row;
        }
    };

    /** Keep only the live entries: at most one per ranked row. */
    template <typename SlotOf>
    void
    compact(SlotOf &slot_of)
    {
        std::erase_if(heap_, [&](const Entry &e) {
            const Slot &s = slot_of(e.row);
            return !s.ranked || s.gen != e.gen;
        });
        std::make_heap(heap_.begin(), heap_.end(), Order{});
        SPARCH_ASSERT(heap_.size() < capacity_,
                      "eviction rank holds more rows than it was sized "
                      "for (", capacity_, " entries)");
    }

    std::vector<Entry> heap_;
    std::vector<Entry> held_; //!< scratch of victim()
    std::size_t capacity_ = 0;
};

} // namespace sparch

#endif // SPARCH_CORE_EVICTION_RANK_HH
