/**
 * @file
 * Distance list builder (paper Section II-E, Fig. 10).
 *
 * "The Distance List Builder will process the look-ahead FIFO and
 * calculates the next use time of each row." Each right-matrix row id
 * keeps the queue of its known future use positions (stream indices of
 * left-matrix elements inside the look-ahead window). The row
 * prefetcher queries the head of that queue to rank buffer lines for
 * Belady replacement; positions beyond the look-ahead horizon are
 * unknown and report `kInfinite`, which is what makes the policy
 * *near*-optimal rather than optimal.
 *
 * Storage is flat: a per-row queue table indexed by row id (epoch-
 * stamped, so clear() is O(1); a ZeroedTable, so only the rows a run
 * touches become resident) over arena blocks of linked nodes recycled
 * through a free list. After warmup neither clear() nor note/consume
 * touches the heap — this structure sits inside the per-cycle
 * window-extension loop of the row prefetcher.
 */

#ifndef SPARCH_CORE_DISTANCE_LIST_HH
#define SPARCH_CORE_DISTANCE_LIST_HH

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "common/arena.hh"
#include "common/types.hh"
#include "common/zeroed_table.hh"

namespace sparch
{

/** Per-row future-use queues over the look-ahead window. */
class DistanceList
{
  public:
    /** Sentinel for "no known future use". */
    static constexpr std::uint64_t kInfinite =
        std::numeric_limits<std::uint64_t>::max();

    /** Standalone mode: node storage on a private arena. */
    DistanceList();

    /** Run mode: node storage on the (outliving) per-run arena. */
    explicit DistanceList(Arena *arena);

    DistanceList(const DistanceList &) = delete;
    DistanceList &operator=(const DistanceList &) = delete;

    /** Record that stream position `pos` uses `row`; pos ascending. */
    void noteUse(Index row, std::uint64_t pos);

    /**
     * Retire one recorded use of `row`. Retirement may be out of order
     * across rows and even within a row (the 64 column fetchers drain
     * their ports independently), so `pos` is removed wherever it sits
     * in the queue.
     */
    void consumeUse(Index row, std::uint64_t pos);

    /** Earliest known future use of `row`, or kInfinite. */
    std::uint64_t nextUse(Index row) const;

    /** Drop all state (start of a merge round); O(1). */
    void clear();

    /** clear() plus pre-sizing the row table for `rows` row ids. */
    void reset(Index rows);

    /** Number of rows with at least one known future use. */
    std::size_t trackedRows() const { return tracked_; }

  private:
    struct Node
    {
        std::uint64_t pos;
        Node *next;
    };

    /**
     * Epoch-stamped queue head; stale epochs read as empty. All-zero
     * bytes are epoch 0, which is never live.
     */
    struct RowQueue
    {
        std::uint32_t epoch = 0;
        std::uint32_t len = 0;
        Node *head = nullptr;
        Node *tail = nullptr;
    };

    RowQueue &rowFor(Index row);
    void ensureTable(std::size_t rows);
    Node *allocNode();

    void
    freeNode(Node *n)
    {
        n->next = free_;
        free_ = n;
    }

    std::unique_ptr<Arena> owned_; //!< standalone mode only
    Arena *arena_;

    ZeroedTable<RowQueue> table_;
    std::uint32_t epoch_ = 1;
    std::size_t tracked_ = 0;

    /**
     * Block-descriptor slots reserved at construction. Live nodes are
     * bounded by the look-ahead window and block sizes double up to
     * 64Ki nodes, so 32 slots (> 2M nodes before the cap, unbounded
     * growth after) can never be outgrown in practice — the reserve
     * keeps blocks_ growth (a heap realloc) out of the cycle loop,
     * where allocNode() runs under the zero-allocation contract.
     */
    static constexpr std::size_t kBlockSlots = 32;

    /** Node blocks, rewound on clear() and reused in order. */
    std::vector<std::pair<Node *, std::size_t>> blocks_;
    std::size_t active_block_ = 0;
    std::size_t block_used_ = 0;
    std::size_t next_block_elems_ = 256;
    Node *free_ = nullptr;
};

} // namespace sparch

#endif // SPARCH_CORE_DISTANCE_LIST_HH
