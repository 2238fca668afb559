#include "core/distance_list.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sparch
{

DistanceList::DistanceList()
    : owned_(std::make_unique<Arena>()), arena_(owned_.get())
{
    blocks_.reserve(kBlockSlots);
}

DistanceList::DistanceList(Arena *arena) : arena_(arena)
{
    SPARCH_ASSERT(arena_ != nullptr, "distance list needs an arena");
    blocks_.reserve(kBlockSlots);
}

void
DistanceList::ensureTable(std::size_t rows)
{
    // Live queues survive table growth (lazy growth in standalone
    // mode); stale-epoch entries are dead weight either way.
    if (rows > table_.size())
        table_.grow(std::max({rows, table_.size() * 2, std::size_t{16}}));
}

DistanceList::Node *
DistanceList::allocNode()
{
    if (free_ != nullptr) {
        Node *n = free_;
        free_ = n->next;
        return n;
    }
    while (active_block_ < blocks_.size()) {
        auto &[mem, elems] = blocks_[active_block_];
        if (block_used_ < elems)
            return mem + block_used_++;
        ++active_block_;
        block_used_ = 0;
    }
    const std::size_t elems = next_block_elems_;
    next_block_elems_ = std::min<std::size_t>(next_block_elems_ * 2, 65536);
    SPARCH_DCHECK(blocks_.size() < kBlockSlots,
                  "distance list outgrew its reserved block slots; "
                  "allocating inside the cycle loop");
    blocks_.emplace_back(arena_->alloc<Node>(elems), elems);
    active_block_ = blocks_.size() - 1;
    block_used_ = 1;
    return blocks_.back().first;
}

DistanceList::RowQueue &
DistanceList::rowFor(Index row)
{
    ensureTable(static_cast<std::size_t>(row) + 1);
    RowQueue &q = table_[row];
    if (q.epoch != epoch_) {
        q = RowQueue{};
        q.epoch = epoch_;
    }
    return q;
}

void
DistanceList::noteUse(Index row, std::uint64_t pos)
{
    RowQueue &q = rowFor(row);
    SPARCH_ASSERT(q.len == 0 || q.tail->pos < pos,
                  "distance list positions must be recorded in order");
    Node *n = allocNode();
    n->pos = pos;
    n->next = nullptr;
    if (q.len == 0) {
        q.head = q.tail = n;
        ++tracked_;
    } else {
        q.tail->next = n;
        q.tail = n;
    }
    ++q.len;
}

void
DistanceList::consumeUse(Index row, std::uint64_t pos)
{
    const bool known = row < table_.size() &&
                       table_[row].epoch == epoch_ && table_[row].len > 0;
    SPARCH_ASSERT(known, "consuming unknown use of row ", row);
    RowQueue &q = table_[row];
    Node *victim = nullptr;
    if (q.head->pos == pos) {
        victim = q.head;
        q.head = victim->next;
        if (q.tail == victim)
            q.tail = nullptr;
    } else {
        Node *prev = q.head;
        while (prev->next != nullptr && prev->next->pos != pos)
            prev = prev->next;
        SPARCH_ASSERT(prev->next != nullptr, "consuming unrecorded use ",
                      pos, " of row ", row);
        victim = prev->next;
        prev->next = victim->next;
        if (q.tail == victim)
            q.tail = prev;
    }
    --q.len;
    if (q.len == 0) {
        q.head = q.tail = nullptr;
        --tracked_;
    }
    freeNode(victim);
}

std::uint64_t
DistanceList::nextUse(Index row) const
{
    if (row >= table_.size())
        return kInfinite;
    const RowQueue &q = table_[row];
    if (q.epoch != epoch_ || q.len == 0)
        return kInfinite;
    return q.head->pos;
}

void
DistanceList::clear()
{
    if (++epoch_ == 0) {
        // Epoch wrap (2^32 rounds): lazily-stamped entries could alias;
        // wipe the table once and restart the epoch sequence.
        table_.zero();
        epoch_ = 1;
    }
    tracked_ = 0;
    free_ = nullptr;
    active_block_ = 0;
    block_used_ = 0;
}

void
DistanceList::reset(Index rows)
{
    clear();
    ensureTable(rows);
}

} // namespace sparch
