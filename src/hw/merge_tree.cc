#include "hw/merge_tree.hh"

#include <algorithm>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace sparch
{
namespace hw
{

MergeTree::MergeTree(const MergeTreeConfig &config, std::string name,
                     Arena *arena)
    : Clocked(std::move(name)), config_(config)
{
    SPARCH_ASSERT(config_.layers >= 1 && config_.layers <= 16,
                  "merge tree layers out of range: ", config_.layers);
    SPARCH_ASSERT(config_.mergerWidth >= 1,
                  "merger width must be positive");
    const unsigned node_count = (2u << config_.layers);
    nodes_.reserve(node_count);
    for (unsigned i = 0; i < node_count; ++i) {
        if (arena != nullptr)
            nodes_.emplace_back(config_.fifoCapacity, *arena);
        else
            nodes_.emplace_back(config_.fifoCapacity);
    }
    cursor_.assign(config_.layers, 0);
    leaf_full_.resize(leafCount());
    const std::string p = this->name() + ".";
    key_elements_merged_ = p + "elements_merged";
    key_additions_ = p + "additions";
    key_cycles_ = p + "cycles";
    key_idle_cycles_ = p + "idle_cycles";
    key_fifo_pushes_ = p + "fifo_pushes";
    key_fifo_pops_ = p + "fifo_pops";
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
    for (unsigned i = first_leaf - 1; i >= 1; --i) {
        nodes_[i].inputDone =
            nodeExhausted(2 * i) && nodeExhausted(2 * i + 1);
        if (i == 1)
            break;
    }
    leaf_full_.clearAll();
    eos_dirty_ = true;
}

void
MergeTree::pushCombining(Node &node, const StreamElement &element)
{
    ++elements_merged_;
    moved_this_cycle_ = true;
    // Merger output invariant: within a round, every internal FIFO
    // receives a non-decreasing coordinate stream (a 2-way merge of
    // sorted children cannot emit out of order).
    SPARCH_DCHECK(node.fifo.empty() ||
                      node.fifo.back().coord <= element.coord,
                  "merger emitted out of order: ",
                  node.fifo.back().coord, " then ", element.coord);
    if (config_.combineDuplicates && !node.fifo.empty() &&
        node.fifo.back().coord == element.coord) {
        // Adder slice: adjacent same-coordinate elements are summed;
        // the zero eliminator removes the vacated slot, so no FIFO
        // space is consumed.
        node.fifo.back().value += element.value;
        ++additions_;
        return;
    }
    node.fifo.push(element);
}

void
MergeTree::serveParent(unsigned parent)
{
    Node &p = nodes_[parent];
    Node &left = nodes_[2 * parent];
    Node &right = nodes_[2 * parent + 1];

    unsigned moved = 0;
    while (moved < config_.mergerWidth && !p.fifo.full()) {
        const bool left_avail = !left.fifo.empty();
        const bool right_avail = !right.fifo.empty();
        if (left_avail && right_avail) {
            // Ties pop the right child first, matching the strict '<'
            // comparator convention (B side wins ties).
            if (left.fifo.front().coord < right.fifo.front().coord)
                pushCombining(p, left.fifo.pop());
            else
                pushCombining(p, right.fifo.pop());
        } else if (left_avail && nodeExhausted(2 * parent + 1)) {
            pushCombining(p, left.fifo.pop());
        } else if (right_avail && nodeExhausted(2 * parent)) {
            pushCombining(p, right.fifo.pop());
        } else {
            // Stall: a child FIFO is empty but not exhausted, so the
            // merger cannot know the next coordinate from that side.
            break;
        }
        ++moved;
    }
    if (2 * parent >= leafCount()) {
        // The children are leaves: popping one frees its FIFO.
        const unsigned leaf = 2 * parent - leafCount();
        leaf_full_.assign(leaf, left.fifo.full());
        leaf_full_.assign(leaf + 1, right.fifo.full());
    }
    // A drained child with inputDone pending may have just become
    // exhausted; let the end-of-stream sweep recompute.
    if (left.fifo.empty() || right.fifo.empty())
        eos_dirty_ = true;
}

SPARCH_HOT void
MergeTree::clockUpdate()
{
    // One shared merger per level, serving a single parent node per
    // cycle. Levels are processed root-side first so data advances one
    // level per cycle, like the registered pipeline in hardware.
    for (unsigned level = 0; level < config_.layers; ++level) {
        const unsigned first = 1u << level;
        const unsigned count = 1u << level;
        unsigned &cur = cursor_[level];
        for (unsigned probe = 0; probe < count; ++probe) {
            const unsigned parent = first + ((cur + probe) % count);
            Node &p = nodes_[parent];
            if (p.inputDone || p.fifo.full())
                continue;
            const bool left_ready =
                !nodes_[2 * parent].fifo.empty() ||
                nodeExhausted(2 * parent);
            const bool right_ready =
                !nodes_[2 * parent + 1].fifo.empty() ||
                nodeExhausted(2 * parent + 1);
            const bool any_data =
                !nodes_[2 * parent].fifo.empty() ||
                !nodes_[2 * parent + 1].fifo.empty();
            if (left_ready && right_ready && any_data) {
                serveParent(parent);
                cur = (parent - first + 1) % count;
                break;
            }
        }
    }

    // Propagate end-of-stream deepest-first (cheap control signals).
    // Exhaustion is monotone within a round and one deepest-first pass
    // reaches the fixpoint, so clean cycles skip the sweep entirely.
    if (eos_dirty_) {
        for (unsigned i = (1u << config_.layers) - 1; i >= 1; --i) {
            if (!nodes_[i].inputDone) {
                nodes_[i].inputDone =
                    nodeExhausted(2 * i) && nodeExhausted(2 * i + 1);
            }
            if (i == 1)
                break;
        }
        eos_dirty_ = false;
    }
}

SPARCH_HOT void
MergeTree::clockApply()
{
    ++cycles_;
    if (!moved_this_cycle_)
        ++idle_cycles_;
    moved_this_cycle_ = false;
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
    stats.set(key_elements_merged_,
              static_cast<double>(elements_merged_));
    stats.set(key_additions_, static_cast<double>(additions_));
    stats.set(key_cycles_, static_cast<double>(cycles_));
    stats.set(key_idle_cycles_, static_cast<double>(idle_cycles_));
    stats.set(key_fifo_pushes_, static_cast<double>(fifoPushes()));
    stats.set(key_fifo_pops_, static_cast<double>(fifoPops()));
}

} // namespace hw
} // namespace sparch
