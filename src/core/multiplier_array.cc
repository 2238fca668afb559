#include "core/multiplier_array.hh"

#include <algorithm>
#include <bit>

#include "common/annotations.hh"
#include "common/logging.hh"
#include "core/mata_column_fetcher.hh"
#include "core/row_prefetcher.hh"

namespace sparch
{

MultiplierArray::MultiplierArray(const SpArchConfig &config)
    : config_(&config)
{}

void
MultiplierArray::connect(MataColumnFetcher *fetcher,
                         RowPrefetcher *prefetcher, hw::MergeTree *tree)
{
    fetcher_ = fetcher;
    prefetcher_ = prefetcher;
    tree_ = tree;
}

void
MultiplierArray::startRound(const std::vector<MultTask> *tasks,
                            std::span<const Value> a_values,
                            const CsrMatrix *b,
                            const PortQueues *port_queues)
{
    tasks_ = tasks;
    a_values_ = a_values;
    b_ = b;
    port_queues_ = port_queues;
    port_cursor_.assign(port_queues_->size(), 0);
    product_cursor_.assign(port_queues_->size(), 0);
    rr_port_ = 0;
    remaining_ = 0;
    head_ready_.resize(port_queues_->size());
    quiet_.resize(port_queues_->size());
    pending_.resize(port_queues_->size());
    wake_at_.assign(port_queues_->size(), 0);
    next_wake_ = kNever;
    seen_evictions_ = prefetcher_->evictions();
    for (const auto &q : *port_queues_)
        remaining_ += q.size();

    // Ports with no tasks at all are exhausted immediately. The 64
    // column fetchers drain their ports independently, so one stalled
    // port never blocks the others (Table I: "64 fetchers support 64
    // columns of left matrix").
    for (std::size_t p = 0; p < port_queues_->size(); ++p) {
        if ((*port_queues_)[p].empty())
            tree_->finishLeaf(static_cast<unsigned>(p));
    }
}

bool
MultiplierArray::done() const
{
    return remaining_ == 0;
}

void
MultiplierArray::syncEvictions()
{
    const std::uint64_t evictions = prefetcher_->evictions();
    if (evictions != seen_evictions_) {
        seen_evictions_ = evictions;
        head_ready_.clearAll();
        pending_.clearAll();
        next_wake_ = kNever;
    }
}

void
MultiplierArray::wakePending(Cycle now)
{
    Cycle next = kNever;
    for (std::size_t w = 0; w < pending_.words(); ++w) {
        for (std::uint64_t bits = pending_.word(w); bits != 0;
             bits &= bits - 1) {
            const std::size_t p =
                w * 64 + static_cast<unsigned>(std::countr_zero(bits));
            if (wake_at_[p] <= now)
                pending_.clear(p);
            else
                next = std::min(next, wake_at_[p]);
        }
    }
    next_wake_ = next;
}

bool
MultiplierArray::parkedExactly(unsigned port, Cycle now) const
{
    const auto &queue = (*port_queues_)[port];
    const std::size_t cursor = port_cursor_[port];
    if (quiet_.test(port))
        return cursor >= queue.size() ||
               !fetcher_->arrivedAt(queue[cursor]);
    if (cursor >= queue.size())
        return false;
    const std::uint32_t pos = queue[cursor];
    if (pending_.test(port))
        return !head_ready_.test(port) && fetcher_->arrivedAt(pos) &&
               prefetcher_->pendingUntil(pos, now) > now;
    // Blocked: latched ready behind a full leaf.
    return tree_->leafFreeSpace(port) == 0 &&
           prefetcher_->peekRowReady(pos, now);
}

std::tuple<unsigned, std::uint64_t, std::uint64_t>
MultiplierArray::skipped(Cycle k) const
{
    if (tasks_ == nullptr || remaining_ == 0 ||
        !prefetcher_->windowWarm())
        return {rr_port_, port_full_stalls_, row_wait_stalls_};
    const BitMask &leaf_full = tree_->leafFull();
    std::uint64_t blocked = 0, pending = 0;
    for (std::size_t w = 0; w < pending_.words(); ++w) {
        blocked += std::popcount(head_ready_.word(w) & leaf_full.word(w));
        pending += std::popcount(pending_.word(w));
    }
    const std::size_t n_ports = port_queues_->size();
    return {static_cast<unsigned>((rr_port_ + k % n_ports) % n_ports),
            port_full_stalls_ + k * blocked,
            row_wait_stalls_ + k * pending};
}

SPARCH_HOT bool
MultiplierArray::clockUpdate(Cycle now)
{
    if (tasks_ == nullptr || remaining_ == 0)
        return false;
    if (!prefetcher_->windowWarm())
        return false;
    syncEvictions();
    fetcher_->wakeLanded(quiet_);
    if (now >= next_wake_)
        wakePending(now);

    const auto n_ports =
        static_cast<unsigned>(port_queues_->size());
    unsigned budget = config_->multipliers;
    unsigned scanned = 0;
    const BitMask &leaf_full = tree_->leafFull();
    const auto blocked_ports = [&](std::size_t w) {
        return head_ready_.word(w) & leaf_full.word(w);
    };
    const auto pending_ports = [&](std::size_t w) {
        return pending_.word(w);
    };
    const auto parked_ports = [&](std::size_t w) {
        return blocked_ports(w) | quiet_.word(w) | pending_.word(w);
    };
    bool visited = false;

    // Round-robin over ports; each port consumes its own queue head
    // (in order within the port) when the element has arrived, its
    // right-matrix row is buffered, and the leaf FIFO has space.
    while (budget > 0 && scanned < n_ports) {
        unsigned p = rr_port_ + scanned;
        if (p >= n_ports)
            p -= n_ports;
        // Parked ports would only stall or find nothing again: skip
        // the whole run, counting each blocked or pending port's poll.
        const unsigned run =
            wrappedRun(parked_ports, p, n_ports, n_ports - scanned);
        if (run > 0) {
            for (unsigned k = 0, q = p; k < run; ++k) {
                SPARCH_DCHECK(parkedExactly(q, now), "port ", q,
                              " skipped while it could progress");
                q = q + 1 == n_ports ? 0 : q + 1;
            }
            port_full_stalls_ +=
                wrappedCount(blocked_ports, p, n_ports, run);
            row_wait_stalls_ +=
                wrappedCount(pending_ports, p, n_ports, run);
            scanned += run;
            continue;
        }
        visited = true;
        auto &cursor = port_cursor_[p];
        if (cursor >= (*port_queues_)[p].size()) {
            quiet_.set(p);
            ++scanned;
            continue;
        }
        const std::uint32_t pos = (*port_queues_)[p][cursor];
        if (!head_ready_.test(p)) {
            if (!fetcher_->arrivedAt(pos)) {
                quiet_.set(p);
                ++scanned;
                continue; // element not fetched from DRAM yet
            }
            const bool ready = prefetcher_->rowReady(pos, now);
            // A demand fetch inside rowReady() may have evicted a
            // latched row.
            syncEvictions();
            if (!ready) {
                ++row_wait_stalls_;
                const Cycle wake = prefetcher_->pendingUntil(pos, now);
                if (wake != 0) {
                    pending_.set(p);
                    wake_at_[p] = wake;
                    next_wake_ = std::min(next_wake_, wake);
                }
                ++scanned;
                continue;
            }
            head_ready_.set(p);
        } else {
            SPARCH_DCHECK(prefetcher_->peekRowReady(pos, now), "port ", p,
                          " latched ready but its row is not");
        }
        const MultTask &task = (*tasks_)[pos];
        const Value a_value = a_values_[task.nz];

        auto b_cols = b_->rowCols(task.bRow);
        auto b_vals = b_->rowVals(task.bRow);
        const auto len = static_cast<Index>(b_cols.size());
        Index &prod = product_cursor_[p];

        bool blocked = false;
        while (prod < len && budget > 0) {
            if (tree_->leafFreeSpace(p) == 0) {
                ++port_full_stalls_;
                blocked = true;
                break;
            }
            tree_->pushLeaf(p,
                            {packCoord(task.aRow, b_cols[prod]),
                             a_value * b_vals[prod]});
            ++multiplies_;
            ++prod;
            --budget;
        }
        if (prod == len && !blocked) {
            // Element fully expanded: retire it.
            prod = 0;
            ++cursor;
            --remaining_;
            head_ready_.clear(p);
            fetcher_->noteConsumed(p);
            prefetcher_->noteConsumed(pos);
            if (cursor == (*port_queues_)[p].size())
                tree_->finishLeaf(p);
            // Stay on this port only if it still has budget-free work;
            // otherwise move on next iteration.
            continue;
        }
        ++scanned;
    }
    if (budget < config_->multipliers)
        ++active_cycles_;
    if (++rr_port_ >= n_ports)
        rr_port_ = 0;
    return visited;
}

void
MultiplierArray::recordStats(StatSet &stats) const
{
    stats.set("multiplier.multiplies", static_cast<double>(multiplies_));
    stats.set("multiplier.row_wait_stalls",
              static_cast<double>(row_wait_stalls_));
    stats.set("multiplier.port_full_stalls",
              static_cast<double>(port_full_stalls_));
    stats.set("multiplier.active_cycles",
              static_cast<double>(active_cycles_));
}

} // namespace sparch
