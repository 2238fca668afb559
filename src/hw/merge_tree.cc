#include "hw/merge_tree.hh"

#include <algorithm>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace sparch
{
namespace hw
{

MergeTree::MergeTree(const MergeTreeConfig &config) : config_(config)
{
    SPARCH_ASSERT(config_.layers >= 1 && config_.layers <= 16,
                  "merge tree layers out of range: ", config_.layers);
    SPARCH_ASSERT(config_.mergerWidth >= 1,
                  "merger width must be positive");
    const unsigned node_count = (2u << config_.layers);
    nodes_.reserve(node_count);
    for (unsigned i = 0; i < node_count; ++i)
        nodes_.emplace_back(config_.fifoCapacity);
    cursor_.assign(config_.layers, 0);
    bottom_level_ = 1u << (config_.layers - 1);
    leaf_full_.resize(leafCount());
    startRound(0);
}

void
MergeTree::startRound(unsigned active_leaves)
{
    SPARCH_ASSERT(active_leaves <= leafCount(),
                  "round uses ", active_leaves, " leaves, tree has ",
                  leafCount());
    const unsigned first_leaf = leafCount();
    for (unsigned i = 1; i < nodes_.size(); ++i) {
        nodes_[i].fifo.clear();
        if (i >= first_leaf) {
            // Unused leaves are exhausted from the start.
            nodes_[i].inputDone = (i - first_leaf) >= active_leaves;
        } else {
            nodes_[i].inputDone = false;
        }
    }
    // Propagate exhaustion of unused subtrees immediately.
    sweepEndOfStream();
    leaf_full_.clearAll();
    eos_dirty_ = true;
}

void
MergeTree::sweepEndOfStream()
{
    // Deepest-first: children 2i and 2i+1 settle before their parent i,
    // so one pass reaches the fixpoint.
    for (unsigned i = leafCount() - 1; i != 0; --i) {
        if (eosPending(i))
            nodes_[i].inputDone = true;
    }
    dirty_levels_ = ~0u;
}

namespace
{

/**
 * A child FIFO's ring read through local cursors for one serve; the
 * FIFO itself is updated once, by commitPops(popped).
 */
struct PopCursor
{
    explicit PopCursor(Fifo<StreamElement> &fifo)
        : data(fifo.ringData()), capacity(fifo.capacity()),
          head(fifo.headSlot()), count(fifo.size())
    {}

    const StreamElement &front() const { return data[head]; }

    /** Pop the front; the slot stays valid for the rest of the serve
     *  because nothing pushes into a child while its parent is served. */
    const StreamElement &
    take()
    {
        const StreamElement &element = data[head];
        if (++head == capacity)
            head = 0;
        --count;
        ++popped;
        return element;
    }

    const StreamElement *data;
    std::size_t capacity;
    std::size_t head;
    std::size_t count;
    std::size_t popped = 0;
};

} // namespace

bool
MergeTree::serveParent(unsigned parent)
{
    Node &p = nodes_[parent];
    Node &left = nodes_[2 * parent];
    Node &right = nodes_[2 * parent + 1];

    // The whole serve runs on local copies of the three rings' cursors
    // and commits the FIFO bookkeeping once at the end. The children
    // only pop and the parent only pushes, so high-water stays exact.
    PopCursor lc(left.fifo);
    PopCursor rc(right.fifo);
    StreamElement *const out = p.fifo.ringData();
    const std::size_t out_capacity = p.fifo.capacity();
    const std::size_t out_free = p.fifo.freeSpace();
    std::size_t out_tail = p.fifo.tailSlot();
    // The parent's newest element: the adder slice's coalescing target.
    StreamElement *back = nullptr;
    if (!p.fifo.empty())
        back = &out[(out_tail == 0 ? out_capacity : out_tail) - 1];

    unsigned moved = 0;
    std::size_t pushed = 0;
    std::uint64_t added = 0;
    while (moved < config_.mergerWidth && pushed < out_free) {
        const StreamElement *element;
        if (lc.count != 0 && rc.count != 0) {
            // Ties pop the right child first, matching the strict '<'
            // comparator convention (B side wins ties).
            element = lc.front().coord < rc.front().coord ? &lc.take()
                                                          : &rc.take();
        } else if (lc.count != 0 && right.inputDone) {
            // The right child is empty and finished, i.e. exhausted.
            element = &lc.take();
        } else if (rc.count != 0 && left.inputDone) {
            element = &rc.take();
        } else {
            // Stall: a child FIFO is empty but not exhausted, so the
            // merger cannot know the next coordinate from that side.
            break;
        }
        ++moved;
        // Merger output invariant: within a round, every internal FIFO
        // receives a non-decreasing coordinate stream (a 2-way merge
        // of sorted children cannot emit out of order).
        SPARCH_DCHECK(back == nullptr || back->coord <= element->coord,
                      "merger emitted out of order: ", back->coord,
                      " then ", element->coord);
        if (config_.combineDuplicates && back != nullptr &&
            back->coord == element->coord) {
            // Adder slice: adjacent same-coordinate elements are
            // summed; the zero eliminator removes the vacated slot, so
            // no FIFO space is consumed.
            back->value += element->value;
            ++added;
            continue;
        }
        back = &out[out_tail];
        *back = *element;
        if (++out_tail == out_capacity)
            out_tail = 0;
        ++pushed;
    }
    left.fifo.commitPops(lc.popped);
    right.fifo.commitPops(rc.popped);
    p.fifo.commitPushes(pushed);
    elements_merged_ += moved;
    additions_ += added;

    if (2 * parent >= leafCount()) {
        // The children are leaves: popping one frees its FIFO.
        const unsigned leaf = 2 * parent - leafCount();
        leaf_full_.assign(leaf, left.fifo.full());
        leaf_full_.assign(leaf + 1, right.fifo.full());
    }
    // A finished child that just drained is newly exhausted, which is
    // the only way a serve can change exhaustion state.
    if ((left.inputDone && lc.popped != 0 && lc.count == 0) ||
        (right.inputDone && rc.popped != 0 && rc.count == 0))
        eos_dirty_ = true;
    return moved != 0;
}

SPARCH_HOT bool
MergeTree::clockUpdate(Cycle)
{
    bool moved = false;
    // One shared merger per level, serving a single parent node per
    // cycle. Levels are processed root-side first so data advances one
    // level per cycle, like the registered pipeline in hardware.
    // A clean level has no servable parent (see dirty_levels_).
    for (unsigned level = 0; level < config_.layers; ++level) {
        const std::uint32_t level_bit = 1u << level;
        const unsigned first = 1u << level;
        const unsigned mask = first - 1; // level width is a power of 2
        if ((dirty_levels_ & level_bit) == 0) {
            if (SPARCH_DCHECK_IS_ON) {
                for (unsigned parent = first; parent <= first + mask;
                     ++parent) {
                    SPARCH_DCHECK(!servable(parent), "clean level ", level,
                                  " skipped servable node ", parent);
                }
            }
            continue;
        }
        unsigned &cur = cursor_[level];
        bool served = false;
        for (unsigned probe = 0; probe <= mask; ++probe) {
            const unsigned parent = first + ((cur + probe) & mask);
            if (servable(parent)) {
                moved |= serveParent(parent);
                cur = (parent - first + 1) & mask;
                // The parent gained data (level L-1 reads it), its
                // children lost some (levels L and L+1).
                dirty_levels_ |= (7u << level) >> 1;
                served = true;
                break;
            }
        }
        if (!served)
            dirty_levels_ &= ~level_bit;
    }
    ++cycles_;
    if (!moved)
        ++idle_cycles_;

    // Propagate end-of-stream (cheap control signals). Only a finished
    // child draining, finishLeaf() or startRound() can newly exhaust a
    // node, and each sets eos_dirty_; on every other cycle the sweep
    // would change nothing and is skipped.
    if (eos_dirty_) {
        sweepEndOfStream();
        eos_dirty_ = false;
        return true;
    }
    if (SPARCH_DCHECK_IS_ON) {
        for (unsigned i = leafCount() - 1; i != 0; --i) {
            SPARCH_DCHECK(!eosPending(i), "end-of-stream sweep skipped ",
                          "while node ", i, " is newly exhausted");
        }
    }
    return moved;
}

std::uint64_t
MergeTree::fifoPushes() const
{
    std::uint64_t total = 0;
    for (const auto &n : nodes_)
        total += n.fifo.pushes();
    return total;
}

std::uint64_t
MergeTree::fifoPops() const
{
    std::uint64_t total = 0;
    for (const auto &n : nodes_)
        total += n.fifo.pops();
    return total;
}

void
MergeTree::recordStats(StatSet &stats) const
{
    stats.set("merge_tree.elements_merged",
              static_cast<double>(elements_merged_));
    stats.set("merge_tree.additions", static_cast<double>(additions_));
    stats.set("merge_tree.cycles", static_cast<double>(cycles_));
    stats.set("merge_tree.idle_cycles", static_cast<double>(idle_cycles_));
    stats.set("merge_tree.fifo_pushes", static_cast<double>(fifoPushes()));
    stats.set("merge_tree.fifo_pops", static_cast<double>(fifoPops()));
}

} // namespace hw
} // namespace sparch
