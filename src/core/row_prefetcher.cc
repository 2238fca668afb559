#include "core/row_prefetcher.hh"

#include <algorithm>
#include <bit>

#include "common/annotations.hh"
#include "common/logging.hh"

namespace sparch
{

RowPrefetcher::RowPrefetcher(const SpArchConfig &config,
                             mem::MemoryModel &mem)
    : config_(&config), mem_(&mem)
{
    demanded_.reserve(config.mergeWays());
}

void
RowPrefetcher::startRound(const std::vector<MultTask> *tasks,
                          const CsrMatrix *b, Bytes b_base)
{
    tasks_ = tasks;
    b_ = b;
    b_base_ = b_base;
    const std::size_t rows = b == nullptr ? 0 : b->rows();
    const std::size_t n = tasks ? tasks->size() : 0;
    window_end_ = cursor_ = 0;
    retired_.assign(n, false);
    watermark_ = 0;
    demand_budget_ = 0;
    resident_count_ = 0;
    // Ranked rows hold at least one resident line each.
    rank_.reset(config_->prefetchLines);
    if (++epoch_ == 0) {
        // Epoch wrap (2^32 rounds): lazily-stamped row states could
        // alias; wipe the table once and restart the epoch sequence.
        rows_.zero();
        epoch_ = 1;
    }
    // Growth keeps the old states; they are stale-epoch, hence inert.
    if (rows > rows_.size())
        rows_.grow(std::max(rows, rows_.size() * 2));
    ahead_rows_count_ = 0;
    demanded_.clear();
    touch_counter_ = 0;
    cursor_miss_lines_ = 0;
    pinned_row_ = -1;

    // Chain each stream position to the next use of its row, leaving
    // every row's head at its first use. A round's stream holds at
    // most one entry per nonzero of A, so 32-bit positions suffice.
    // The first time the pass meets a row, the row gets its line
    // slots, unless it is too long for the buffer and is read whole.
    next_same_row_.clear();
    bool streams = !config_->rowPrefetcher;
    if (config_->rowPrefetcher && n > 0) {
        SPARCH_ASSERT(n < kNoPos, "round stream of ", n,
                      " entries overflows 32-bit positions");
        next_same_row_.resize(n);
        std::uint64_t lines = 0;
        for (std::size_t p = n; p-- > 0;) {
            const Index row = (*tasks)[p].bRow;
            RowState &rs = state(row);
            if (rs.first_unretired == kNoPos) {
                const Index n_lines = rowLines(row);
                if (n_lines > config_->prefetchLines) {
                    streams = true;
                } else {
                    rs.line_off = static_cast<std::uint32_t>(lines);
                    lines += n_lines;
                }
            }
            next_same_row_[p] = rs.first_unretired;
            rs.first_unretired = static_cast<std::uint32_t>(p);
        }
        SPARCH_ASSERT(lines <= kNoPos, "round caches ", lines,
                      " lines, past 32-bit line offsets");
        line_ready_.resize(lines);
    }
    streamed_ready_.clear();
    if (streams)
        streamed_ready_.resize(n, kNotIssued);
}

void
RowPrefetcher::releaseRound()
{
    tasks_ = nullptr;
    decltype(next_same_row_)().swap(next_same_row_);
    decltype(retired_)().swap(retired_);
    decltype(line_ready_)().swap(line_ready_);
    decltype(streamed_ready_)().swap(streamed_ready_);
    rows_.release();
}

Index
RowPrefetcher::rowLines(Index row) const
{
    const Index len = b_->rowNnz(row);
    const auto per_line = static_cast<Index>(config_->prefetchLineElems);
    return (len + per_line - 1) / per_line;
}

Bytes
RowPrefetcher::lineBytes(Index row, Index line) const
{
    const Index len = b_->rowNnz(row);
    const auto per_line = static_cast<Index>(config_->prefetchLineElems);
    const Index start = line * per_line;
    const Index elems = std::min(per_line, len - start);
    return static_cast<Bytes>(elems) * bytesPerElement;
}

void
RowPrefetcher::demandInsert(Index row, RowState &rs, std::uint64_t pos)
{
    const Demand entry{row, pos};
    const auto at =
        std::lower_bound(demanded_.begin(), demanded_.end(), entry);
    if (at != demanded_.end() && *at == entry)
        return;
    SPARCH_ASSERT(demanded_.size() < config_->mergeWays(),
                  "more than one pending demand fetch per merge way");
    demanded_.insert(at, entry);
    ++rs.dem_len;
}

void
RowPrefetcher::demandErase(Index row, RowState &rs, std::uint64_t pos)
{
    const Demand entry{row, pos};
    const auto at =
        std::lower_bound(demanded_.begin(), demanded_.end(), entry);
    if (at == demanded_.end() || *at != entry)
        return;
    demanded_.erase(at);
    --rs.dem_len;
}

void
RowPrefetcher::noteConsumed(std::uint64_t pos)
{
    SPARCH_ASSERT(pos < retired_.size() && !retired_[pos],
                  "double retirement of stream entry ", pos);
    const Index row = (*tasks_)[pos].bRow;
    retired_[pos] = true;
    while (watermark_ < retired_.size() && retired_[watermark_])
        ++watermark_;
    if (!config_->rowPrefetcher)
        return;

    buffer_reads_ += b_->rowNnz(row);
    RowState &rs = state(row);
    // Column fetchers retire out of order, even within a row, so the
    // head skips every position already retired; each position is
    // skipped at most once per round.
    if (pos == rs.first_unretired) {
        std::uint32_t p = next_same_row_[pos];
        while (p != kNoPos && retired_[p])
            p = next_same_row_[p];
        rs.first_unretired = p;
    }
    rs.last_touch = ++touch_counter_;
    if (rs.ahead > 0 && --rs.ahead == 0)
        --ahead_rows_count_;
    demandErase(row, rs, pos);
    reRankRow(row);
}

std::uint64_t
RowPrefetcher::nextUse(Index row) const
{
    const RowState &rs = rows_[row];
    // A fast column fetcher can retire positions the window has not
    // reached yet; the head has skipped those already.
    return rs.epoch == epoch_ && rs.first_unretired < window_end_
               ? rs.first_unretired
               : kInfinite;
}

std::uint64_t
RowPrefetcher::effectiveNextUse(Index row, const RowState &rs) const
{
    std::uint64_t key = nextUse(row);
    if (rs.dem_len > 0) {
        // The row's first pair holds its earliest pending position.
        const auto first = std::lower_bound(
            demanded_.begin(), demanded_.end(), Demand{row, 0});
        key = std::min(key, first->second);
    }
    return key;
}

std::uint64_t
RowPrefetcher::rankKey(Index row, const RowState &rs) const
{
    switch (config_->replacement) {
      case ReplacementPolicy::Belady:
        return effectiveNextUse(row, rs);
      case ReplacementPolicy::Lru:
        return kInfinite - rs.last_touch;
      case ReplacementPolicy::Fifo:
        return kInfinite - rs.insert_tick;
      default:
        panic("unknown replacement policy");
    }
}

void
RowPrefetcher::reRankRow(Index row)
{
    RowState &rs = state(row);
    if (rs.prefix_len > 0)
        rank_.rank(row, rs.rank, rankKey(row, rs), rankSlot());
    else
        EvictionRank::unrank(rs.rank);
}

bool
RowPrefetcher::streamRow(std::uint64_t pos, Index row, Cycle now)
{
    if (streamed_ready_[pos] != kNotIssued)
        return false;
    const Bytes addr =
        b_base_ + static_cast<Bytes>(b_->rowPtr()[row]) * bytesPerElement;
    const Bytes bytes =
        static_cast<Bytes>(b_->rowNnz(row)) * bytesPerElement;
    streamed_ready_[pos] = mem_->read(DramStream::MatB, addr, bytes, now);
    misses_ += rowLines(row);
    return true;
}

bool
RowPrefetcher::evictOne(std::uint64_t protect_pos)
{
    // Farthest-next-use victim, skipping the row currently being
    // filled (a row must never evict its own lines while fetching)
    // and rows a blocked port head is waiting on (their global stream
    // position overstates their next use under out-of-order port
    // consumption; evicting them livelocks the merge tree). Buffers
    // smaller than the working set of port heads fall back to the
    // demanded row with the farthest pending position: the earliest
    // heads stay resident, so the pipeline thrashes (as a too-small
    // buffer must) but never deadlocks. Belady never evicts a row
    // whose next use is at or before protect_pos.
    const bool belady =
        config_->replacement == ReplacementPolicy::Belady;
    const SIndex victim = rank_.victim(
        rankSlot(), pinned_row_,
        [this](Index r) { return rows_[r].dem_len > 0; },
        belady ? std::optional<std::uint64_t>(protect_pos)
               : std::nullopt);
    if (victim < 0)
        return false;
    const auto row = static_cast<Index>(victim);
    RowState &rs = state(row);
    SPARCH_ASSERT(rs.prefix_len > 0, "ranked row has no resident lines");
    // Spill line by line from the tail (Fig. 9 spills partial rows so
    // re-fetch only touches missing lines).
    --rs.prefix_len;
    --resident_count_;
    ++evictions_;
    if (rs.prefix_len == 0) {
        rs.insert_tick = 0;
        reRankRow(row);
    }
    return true;
}

bool
RowPrefetcher::prefetchRow(Index row, unsigned &budget,
                           bool count_misses, Cycle now)
{
    pinned_row_ = static_cast<SIndex>(row);
    const Index n_lines = rowLines(row);
    RowState &rs = state(row);
    bool ranked_dirty = rs.prefix_len == 0;
    if (rs.prefix_len == 0)
        rs.insert_tick = ++touch_counter_;
    rs.last_touch = ++touch_counter_;
    // Resident lines form the prefix {0..prefix_len-1} (evictions
    // spill from the tail), so only the tail lines are missing.
    while (rs.prefix_len < n_lines) {
        const Index l = rs.prefix_len;
        if (budget == 0) {
            if (ranked_dirty && rs.prefix_len > 0)
                reRankRow(row);
            pinned_row_ = -1;
            return false;
        }
        while (resident_count_ >= config_->prefetchLines) {
            if (!evictOne(watermark_)) {
                if (ranked_dirty && rs.prefix_len > 0)
                    reRankRow(row);
                pinned_row_ = -1;
                return false;
            }
        }
        // Replacement decision latency grows with the reduction tree
        // over the line count (Section II-E / Fig. 17b).
        const Cycle decision =
            std::bit_width(config_->prefetchLines) / 2;
        const Bytes addr = b_base_ +
            (static_cast<Bytes>(b_->rowPtr()[row]) +
             static_cast<Bytes>(l) * config_->prefetchLineElems) *
                bytesPerElement;
        const Cycle ready = mem_->read(DramStream::MatB, addr,
                                       lineBytes(row, l), now) +
                            decision;
        lineReady(rs)[l] = ready;
        ++rs.prefix_len;
        ++resident_count_;
        ++buffer_writes_;
        --budget;
        if (count_misses)
            ++cursor_miss_lines_;
        ranked_dirty = true;
    }
    // Recency-based policies must re-rank on every touch, not only
    // when residency changed.
    if (ranked_dirty ||
        config_->replacement != ReplacementPolicy::Belady) {
        reRankRow(row);
    }
    pinned_row_ = -1;
    return true;
}

bool
RowPrefetcher::rowReady(std::uint64_t pos, Cycle now)
{
    if (peekRowReady(pos, now))
        return true;

    // Not ready: start whatever fetch the row still lacks.
    const Index row = (*tasks_)[pos].bRow;
    if (!config_->rowPrefetcher) {
        // No prefetcher: stream the full row from DRAM at use time.
        streamRow(pos, row, now);
        return false;
    }

    // Rows larger than the whole buffer are streamed by the cursor.
    const Index n_lines = rowLines(row);
    if (n_lines > config_->prefetchLines)
        return false;

    RowState &rs = state(row);
    if (rs.prefix_len != n_lines && demand_budget_ > 0) {
        // Demand fetch: a port head must never starve behind a stalled
        // prefetch cursor (each column fetcher fetches its own rows in
        // hardware). Issued lines count as misses here; if the cursor
        // later visits this position it sees resident lines, a small
        // hit-rate optimism accepted for pipeline liveness.
        demandInsert(row, rs, pos);
        const std::uint64_t before = buffer_writes_;
        prefetchRow(row, demand_budget_, /*count_misses=*/false, now);
        misses_ += buffer_writes_ - before;
    }
    return false;
}

bool
RowPrefetcher::peekRowReady(std::uint64_t pos, Cycle now) const
{
    const Index row = (*tasks_)[pos].bRow;
    if (b_->rowNnz(row) == 0)
        return true;
    const Index n_lines = rowLines(row);
    if (!config_->rowPrefetcher || n_lines > config_->prefetchLines) {
        // kNotIssued lies past every cycle.
        return now >= streamed_ready_[pos];
    }
    const RowState &rs = rows_[row];
    if (rs.epoch != epoch_ || rs.prefix_len != n_lines)
        return false;
    return now >= *std::max_element(lineReady(rs),
                                    lineReady(rs) + rs.prefix_len);
}

Cycle
RowPrefetcher::pendingUntil(std::uint64_t pos, Cycle now) const
{
    if (!config_->rowPrefetcher)
        return 0;
    const Index row = (*tasks_)[pos].bRow;
    const Index n_lines = rowLines(row);
    if (n_lines == 0 || n_lines > config_->prefetchLines)
        return 0;
    const RowState &rs = rows_[row];
    if (rs.epoch != epoch_ || rs.prefix_len != n_lines)
        return 0;
    const Cycle ready =
        *std::max_element(lineReady(rs), lineReady(rs) + n_lines);
    return ready > now ? ready : 0;
}

SPARCH_HOT bool
RowPrefetcher::clockUpdate(Cycle now)
{
    if (!config_->rowPrefetcher || tasks_ == nullptr)
        return false;
    const std::uint64_t window_before = window_end_;
    const std::uint64_t cursor_before = cursor_;
    bool retried = false;

    // Extend the look-ahead window: the distance list builder
    // processes up to mataFetchWidth stream entries per cycle, and the
    // window never exceeds its FIFO capacity past the oldest
    // unretired element (the limit never falls: the watermark only
    // rises).
    window_end_ = std::min<std::uint64_t>(
        {tasks_->size(), watermark_ + config_->lookaheadFifo,
         window_end_ + config_->mataFetchWidth});

    unsigned budget = config_->rowFetchers;
    // Reserve part of the fetch bandwidth for demand re-fetches of
    // evicted-before-use lines (issued from rowReady this cycle).
    demand_budget_ = std::max(1u, config_->rowFetchers / 4);

    bool stalled = false;
    while (cursor_ < window_end_ && budget > 0 && !stalled) {
        // Entries a fast column fetcher already retired need neither
        // prefetch nor ahead-window accounting.
        if (retired_[cursor_]) {
            ++cursor_;
            continue;
        }
        const MultTask &task = (*tasks_)[cursor_];
        const Index row = task.bRow;
        RowState &rs = state(row);

        if (b_->rowNnz(row) == 0) {
            if (rs.ahead++ == 0)
                ++ahead_rows_count_;
            ++cursor_;
            continue;
        }

        // Limit how many distinct rows run ahead of consumption
        // (Table I: 16 fetchers, "each can prefetch up to 48 rows
        // before used" -> aggregate window of fetchers x 48 rows).
        if (rs.ahead == 0 &&
            ahead_rows_count_ >= static_cast<std::size_t>(
                                     config_->prefetchRowsAhead) *
                                     config_->rowFetchers) {
            stalled = true;
            break;
        }

        if (rowLines(row) > config_->prefetchLines) {
            // Stream oversized rows without caching.
            if (streamRow(cursor_, row, now))
                budget = budget > 1 ? budget - 1 : 0;
        } else if (!prefetchRow(row, budget, /*count_misses=*/true,
                                now)) {
            // A failed fill still stamped the row's recency.
            retried = true;
            stalled = true;
            break;
        } else {
            // Position fully handled: tally per-position hit/miss.
            // (Re-issued evicted lines can make miss lines exceed the
            // row's line count under extreme pressure.)
            misses_ += cursor_miss_lines_;
            if (rowLines(row) > cursor_miss_lines_)
                hits_ += rowLines(row) - cursor_miss_lines_;
            cursor_miss_lines_ = 0;
        }
        if (rs.ahead++ == 0)
            ++ahead_rows_count_;
        ++cursor_;
    }
    if (stalled)
        ++stall_cycles_;
    return retried || window_end_ != window_before ||
           cursor_ != cursor_before;
}

double
RowPrefetcher::hitRate() const
{
    const std::uint64_t total = hits_ + misses_;
    return total == 0 ? 0.0
                      : static_cast<double>(hits_) /
                            static_cast<double>(total);
}

void
RowPrefetcher::recordStats(StatSet &stats) const
{
    stats.set("row_prefetcher.hits", static_cast<double>(hits_));
    stats.set("row_prefetcher.misses", static_cast<double>(misses_));
    stats.set("row_prefetcher.evictions", static_cast<double>(evictions_));
    stats.set("row_prefetcher.stall_cycles",
              static_cast<double>(stall_cycles_));
    stats.set("row_prefetcher.buffer_reads",
              static_cast<double>(buffer_reads_));
    stats.set("row_prefetcher.buffer_writes",
              static_cast<double>(buffer_writes_));
}

} // namespace sparch
