/**
 * @file
 * Streaming merge tree (paper Section II-A-3, Fig. 5).
 *
 * A full binary tree of FIFOs: input arrays enter at the leaf nodes,
 * the merged array drains from the root. Every tree level shares one
 * comparator-array merger ("each layer shares one merger to balance the
 * throughput"): per cycle each level's merger serves a single parent
 * node, moving up to mergerWidth elements from its two child FIFOs.
 * Adder slices after each merger sum adjacent same-coordinate elements
 * (Section II-A-4), modelled by coalescing into the parent FIFO's
 * newest element; the zero eliminator's effect is implicit in the
 * compacted output. The comparator-array pick (B side wins ties), the
 * adder slice and the zero eliminator have no separate units:
 * serveParent() models all three.
 *
 * Table I: 6 layers of 16-wide array mergers = 64-way merge.
 *
 * Hot-path notes:
 *  - The leaf/root accessors are called from the multiplier and writer
 *    inner loops every cycle and live in the header so they inline.
 *  - Each node FIFO owns its ring, sized when the tree is built, so
 *    the cycle loop never allocates.
 *  - A serve merges on local copies of the three rings' cursors and
 *    commits each FIFO's counters once (Fifo::commitPops/commitPushes),
 *    not per element.
 *  - The end-of-stream sweep runs only on cycles where a finished child
 *    drained, a leaf was finished or a round started: the only events
 *    that can newly exhaust a node. Exhaustion is monotone within a
 *    round, so skipping every other cycle is exact; DCHECK builds
 *    verify that each skipped sweep would have changed nothing.
 *  - A leaf-full bitmask, kept current by pushLeaf() and the
 *    bottom-level merger, lets the multiplier's port scan jump over
 *    back-pressured leaves a word at a time instead of probing each
 *    leaf FIFO.
 *  - Dirty levels: one bit per level marks that some parent on it may
 *    have become servable since its last scan served nothing. A parent
 *    is servable by its own inputDone and fullness and its children's
 *    emptiness and exhaustion, and only these events change them:
 *    pushLeaf() and finishLeaf() (bottom level; a finished empty leaf
 *    lets its sibling drain), popRoot() (level 0), a serve at level L
 *    (levels L-1, L and L+1), the end-of-stream sweep and startRound()
 *    (all levels). A clean level is not scanned, a scan that serves
 *    nothing cleans its level, and a fruitless scan leaves the
 *    round-robin cursor where it was, so skipping it is exact; DCHECK
 *    builds re-check every parent of every skipped level. This is not
 *    the refuted per-parent "servable" bitmask, which recomputed
 *    readiness on every push: an event here sets one bit and
 *    recomputes nothing.
 */

#ifndef SPARCH_HW_MERGE_TREE_HH
#define SPARCH_HW_MERGE_TREE_HH

#include <cstdint>
#include <tuple>
#include <vector>

#include "common/bit_mask.hh"
#include "common/logging.hh"
#include "hw/clocked.hh"
#include "hw/fifo.hh"

namespace sparch
{
namespace hw
{

/** Merge-tree geometry and throughput parameters. */
struct MergeTreeConfig
{
    /** Tree depth; leaf count is 2^layers (Table I: 6 -> 64-way). */
    unsigned layers = 6;

    /** Elements each level's merger moves per cycle (16x16 merger). */
    unsigned mergerWidth = 16;

    /** Capacity of each node FIFO in elements. */
    std::size_t fifoCapacity = 64;

    /**
     * Sum adjacent same-coordinate elements while merging (the adder
     * slices). Disabled only for microbenchmarks of raw merge
     * throughput.
     */
    bool combineDuplicates = true;
};

/**
 * The merge tree. One instance is reused across merge rounds via
 * startRound(); producers push into leaf ports, the consumer pops the
 * root.
 */
class MergeTree final
{
  public:
    explicit MergeTree(const MergeTreeConfig &config);

    MergeTree(const MergeTree &) = delete;
    MergeTree &operator=(const MergeTree &) = delete;

    unsigned leafCount() const { return 1u << config_.layers; }
    const MergeTreeConfig &config() const { return config_; }

    /**
     * Reset all FIFOs and end-of-stream state for a new merge round
     * with `active_leaves` input arrays; remaining leaf ports are
     * immediately marked exhausted.
     */
    void startRound(unsigned active_leaves);

    /** Free space in a leaf FIFO (producer back-pressure). */
    std::size_t
    leafFreeSpace(unsigned leaf) const
    {
        SPARCH_DCHECK(leaf < leafCount(), "leaf index out of range");
        return nodes_[leafCount() + leaf].fifo.freeSpace();
    }

    /** Push one element into a leaf port; caller checks space. */
    void
    pushLeaf(unsigned leaf, const StreamElement &element)
    {
        SPARCH_DCHECK(leaf < leafCount(), "leaf index out of range");
        Node &node = nodes_[leafCount() + leaf];
        SPARCH_DCHECK(!node.inputDone, "push to finished leaf ", leaf);
        // Leaf streams are sorted partial-product columns; a
        // disordered push here would silently corrupt every merge
        // above it.
        SPARCH_DCHECK(node.fifo.empty() ||
                          node.fifo.back().coord <= element.coord,
                      "leaf ", leaf, " fed out of order: ",
                      node.fifo.back().coord, " then ", element.coord);
        node.fifo.push(element);
        if (node.fifo.full())
            leaf_full_.set(leaf);
        dirty_levels_ |= bottom_level_;
    }

    /**
     * One bit per leaf, set exactly when leafFreeSpace(leaf) == 0.
     * pushLeaf() sets it and the bottom-level merger clears it.
     */
    const BitMask &leafFull() const { return leaf_full_; }

    /** Mark a leaf's input array as fully delivered. */
    void
    finishLeaf(unsigned leaf)
    {
        SPARCH_DCHECK(leaf < leafCount(), "leaf index out of range");
        nodes_[leafCount() + leaf].inputDone = true;
        eos_dirty_ = true;
        // An empty leaf is now exhausted: its sibling may drain.
        dirty_levels_ |= bottom_level_;
    }

    /** True when the root FIFO has data to pop. */
    bool rootHasData() const { return !nodes_[1].fifo.empty(); }

    /**
     * True when the root FIFO element at the head is final, i.e. no
     * in-flight element could still coalesce with it. Conservatively:
     * more than one element buffered, or the whole tree is done.
     */
    bool
    rootHasPoppable() const
    {
        const Node &root = nodes_[1];
        if (root.fifo.empty())
            return false;
        // The newest buffered element may still coalesce with an
        // in-flight equal coordinate; it is only releasable once more
        // data queued behind it or the tree is finished.
        return root.fifo.size() > 1 || root.inputDone;
    }

    /** Pop one element from the root. */
    StreamElement
    popRoot()
    {
        dirty_levels_ |= 1; // the root may accept a serve again
        return nodes_[1].fifo.pop();
    }

    /** True when every input is exhausted and all FIFOs are empty. */
    bool done() const { return nodes_[1].inputDone && nodes_[1].fifo.empty(); }

    /** True when a level moved an element or the end-of-stream
     *  sweep ran. Counts the cycle, and an idle one when no level
     *  moved an element. */
    bool clockUpdate(Cycle now);
    void recordStats(StatSet &stats) const;

    /** None: the tree moves only on input from its neighbours. */
    Cycle nextEventCycle(Cycle) const { return kNoEvent; }

    /** (cycles, idle_cycles) after k cycles without progress. */
    std::tuple<std::uint64_t, std::uint64_t>
    skipped(Cycle k) const
    {
        return {cycles_ + k, idle_cycles_ + k};
    }

    void skip(Cycle k) { std::tie(cycles_, idle_cycles_) = skipped(k); }

    /** Elements that crossed any level merger (switching activity). */
    std::uint64_t elementsMerged() const { return elements_merged_; }

    /** Same-coordinate additions performed by the adder slices. */
    std::uint64_t additions() const { return additions_; }

    /** Cycles in which no level moved any element. */
    std::uint64_t idleCycles() const { return idle_cycles_; }

    /** Total cycles ticked. */
    std::uint64_t cycles() const { return cycles_; }

    /** Aggregate FIFO pushes across all nodes (SRAM writes). */
    std::uint64_t fifoPushes() const;

    /** Aggregate FIFO pops across all nodes (SRAM reads). */
    std::uint64_t fifoPops() const;

  private:
    /** Heap-style node index: root = 1, children of n = 2n, 2n+1. */
    struct Node
    {
        explicit Node(std::size_t capacity) : fifo(capacity) {}
        Fifo<StreamElement> fifo;
        /** No further input will arrive into this node's FIFO. */
        bool inputDone = false;
    };

    bool
    nodeExhausted(unsigned idx) const
    {
        return nodes_[idx].inputDone && nodes_[idx].fifo.empty();
    }

    /** True when the sweep would newly mark internal node `idx` done:
     *  both children are exhausted but its inputDone is still clear. */
    bool
    eosPending(unsigned idx) const
    {
        return !nodes_[idx].inputDone && nodeExhausted(2 * idx) &&
               nodeExhausted(2 * idx + 1);
    }

    /**
     * The level merger can serve `parent` now: it is not finished and
     * has room, each child has data or is exhausted, and one has data.
     */
    bool
    servable(unsigned parent) const
    {
        const Node &p = nodes_[parent];
        if (p.inputDone || p.fifo.full())
            return false;
        const Node &left = nodes_[2 * parent];
        const Node &right = nodes_[2 * parent + 1];
        const bool left_ready = !left.fifo.empty() || left.inputDone;
        const bool right_ready = !right.fifo.empty() || right.inputDone;
        const bool any_data = !left.fifo.empty() || !right.fifo.empty();
        return left_ready && right_ready && any_data;
    }

    /** One deepest-first end-of-stream propagation pass. */
    void sweepEndOfStream();

    /** Serve `parent` from its children; true when an element moved. */
    bool serveParent(unsigned parent);

    MergeTreeConfig config_;
    std::vector<Node> nodes_;       //!< 1-based heap layout
    std::vector<unsigned> cursor_;  //!< round-robin cursor per level
    BitMask leaf_full_;             //!< see leafFull()

    std::uint64_t elements_merged_ = 0;
    std::uint64_t additions_ = 0;
    std::uint64_t idle_cycles_ = 0;
    std::uint64_t cycles_ = 0;

    /**
     * A node may have become exhausted since the last end-of-stream
     * sweep. Set by finishLeaf(), startRound() and a serve that drains
     * a child whose inputDone is set; exhaustion is monotone within a
     * round (inputDone is sticky and exhausted nodes never receive
     * pushes), and the sweep's own inputDone updates settle within its
     * single deepest-first pass, so no other event can make a sweep
     * change anything.
     */
    bool eos_dirty_ = true;

    /** Bit L: some level-L parent may be servable (see @file). */
    std::uint32_t dirty_levels_ = ~0u;
    std::uint32_t bottom_level_; //!< the bit of the leaves' parents
};

} // namespace hw
} // namespace sparch

#endif // SPARCH_HW_MERGE_TREE_HH
