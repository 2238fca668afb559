/**
 * @file
 * MatB row prefetcher with near-Belady replacement (Section II-D).
 *
 * The prefetcher serves two functions the paper names explicitly:
 * hiding DRAM latency by fetching right-matrix rows before the
 * multipliers need them, and caching fetched rows for reuse. The buffer
 * is organized as lines (Table I: 1024 lines x 48 elements x 12 bytes);
 * rows are cached and spilled *line by line* (Fig. 9), so a partially
 * evicted row refetches only its missing lines. Replacement evicts the
 * line whose owning row has the farthest next use inside the
 * look-ahead window — Belady's policy restricted to the look-ahead
 * horizon. The ranking behind that choice is a flat max-heap with
 * lazily invalidated entries (core/eviction_rank.hh), re-keyed as each
 * left-matrix element retires.
 *
 * The paper's distance list builder (Section II-E, Fig. 10) knows each
 * row's next use inside the window. Here the whole round stream is
 * known when the round starts, so startRound() chains each stream
 * position to the next position of the same row, and each row keeps
 * its earliest unretired position: a retirement advances that head
 * past retired positions, and the next use is the head while it lies
 * inside the window.
 *
 * Per-row bookkeeping lives in one flat, epoch-stamped RowState table
 * indexed by row id (residency, readiness, recency, demand-fetch
 * positions, next-use head), not in hash maps. The table is a
 * ZeroedTable, so only the B rows a run touches become resident.
 * Residency exploits an invariant of the line machinery — the
 * resident lines of a row always form the prefix {0..k-1}, because
 * prefetchRow() fills missing lines in ascending order and evictOne()
 * spills from the tail — so a single prefix length replaces the
 * per-row line map.
 *
 * The multiplier polls rowReady() for a port head only while a poll
 * can change something or return true:
 *  - After a true poll it latches the answer until evictions() moves.
 *    The latch is exact: rowReady() is peekRowReady() plus fetch side
 *    effects on its false path only, and a fully resident row loses
 *    readiness only by eviction.
 *  - After a false poll it asks pendingUntil(). A nonzero answer T
 *    means every line of the row is issued and the last lands at T;
 *    until T, or until evictions() moves, every poll returns false and
 *    starts no fetch, so the multiplier parks the port and counts each
 *    skipped poll as a row_wait_stalls poll. Rows not fully issued are
 *    still polled every cycle: their polls start demand fetches.
 */

#ifndef SPARCH_CORE_ROW_PREFETCHER_HH
#define SPARCH_CORE_ROW_PREFETCHER_HH

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/zeroed_table.hh"
#include "core/eviction_rank.hh"
#include "core/round_stream.hh"
#include "core/sparch_config.hh"
#include "mem/memory_model.hh"
#include "hw/clocked.hh"
#include "matrix/csr.hh"

namespace sparch
{

/** The MatB row prefetcher module. */
class RowPrefetcher final
{
  public:
    /** Next use of a row with no known future use. */
    static constexpr std::uint64_t kInfinite =
        std::numeric_limits<std::uint64_t>::max();

    /**
     * Reserves the pending demand-fetch table for one entry per merge
     * way; every other table is sized by startRound().
     */
    RowPrefetcher(const SpArchConfig &config, mem::MemoryModel &mem);

    RowPrefetcher(const RowPrefetcher &) = delete;
    RowPrefetcher &operator=(const RowPrefetcher &) = delete;

    /**
     * Begin a merge round, sizing every table the round's cycle loop
     * uses: line slots for each cached row of the stream, and a
     * ready cycle per stream position when the round reads a row
     * whole (the prefetcher is off or a row outgrows the buffer).
     * @param tasks    The round's left-element stream (Fig. 7 order).
     * @param b        Right matrix.
     * @param b_base   DRAM base address of the right matrix.
     */
    void startRound(const std::vector<MultTask> *tasks,
                    const CsrMatrix *b, Bytes b_base);

    /**
     * Free the per-element and per-row state once the last round ran:
     * the next-use chain, the line slots, the retired and streamed
     * positions and the row table. The counters stay.
     */
    void releaseRound();

    /**
     * True once the look-ahead window has filled to its capacity (or
     * the whole round stream fits inside it). The multipliers hold off
     * until then so replacement decisions see a full horizon; this is
     * the startup cost that penalizes oversized FIFOs (Fig. 17d).
     */
    bool
    windowWarm() const
    {
        if (!config_->rowPrefetcher)
            return true; // no look-ahead machinery to warm up
        return tasks_ == nullptr ||
               window_end_ >= std::min<std::uint64_t>(
                                  config_->lookaheadFifo,
                                  tasks_->size());
    }

    /**
     * Belady next use of `row`: its earliest unretired stream position
     * when that lies inside the look-ahead window, else kInfinite.
     */
    std::uint64_t nextUse(Index row) const;

    /**
     * Called by the multiplier when stream entry `pos` retires. The 64
     * column fetchers drain their ports independently, so retirement
     * order is only monotone per port, not globally.
     */
    void noteConsumed(std::uint64_t pos);

    /**
     * True when the right-matrix row of stream entry `pos` is fully on
     * chip at cycle `now` and usable by the multipliers.
     */
    bool rowReady(std::uint64_t pos, Cycle now);

    /**
     * What rowReady(pos, now) returns, without the fetches it starts
     * when the answer is false (demand fetches, bypass reads, miss
     * counts).
     */
    bool peekRowReady(std::uint64_t pos, Cycle now) const;

    /**
     * The cycle T > now at which the row of stream entry `pos`
     * becomes ready, when every one of its lines is already issued to
     * the buffer; until T, rowReady(pos) returns false without side
     * effects unless evictions() moves first. 0 when the row is not
     * fully issued, is ready at `now`, is streamed (oversized) or the
     * prefetcher is off: then a poll may start a fetch.
     */
    Cycle pendingUntil(std::uint64_t pos, Cycle now) const;

    bool clockUpdate(Cycle now);
    void recordStats(StatSet &stats) const;

    /**
     * None: the update reads the cycle only to time the fetches it
     * issues. A row landing is seen only by a multiplier poll, and a
     * port waiting on one is either parked until pendingUntil() (the
     * multiplier's event) or polled every cycle, which is progress.
     */
    Cycle nextEventCycle(Cycle) const { return hw::kNoEvent; }

    /**
     * stall_cycles after k cycles without progress. Such a cycle
     * stalls exactly when the cursor is behind the window: its entry
     * is held back by the rows-ahead limit, since every other outcome
     * moves the cursor or touches a row.
     */
    std::uint64_t
    skipped(Cycle k) const
    {
        const bool stalls = config_->rowPrefetcher && tasks_ != nullptr &&
                            config_->rowFetchers > 0 &&
                            cursor_ < window_end_;
        return stall_cycles_ + (stalls ? k : 0);
    }

    void skip(Cycle k) { stall_cycles_ = skipped(k); }

    /** Line lookups that found the line resident. */
    std::uint64_t hits() const { return hits_; }

    /** Line lookups that required a DRAM fetch. */
    std::uint64_t misses() const { return misses_; }

    /** Lines evicted so far; any change may un-ready a row. */
    std::uint64_t evictions() const { return evictions_; }

    /** Buffer hit rate over the whole run. */
    double hitRate() const;

    /** Lines written into the buffer (SRAM accesses). */
    std::uint64_t bufferWrites() const { return buffer_writes_; }

  private:
    /** End of a chain of stream positions. */
    static constexpr std::uint32_t kNoPos =
        std::numeric_limits<std::uint32_t>::max();

    /** A pending demand fetch: (row, stream position). */
    using Demand = std::pair<Index, std::uint64_t>;

    /** Ready cycle of a streamed position whose read is not issued. */
    static constexpr Cycle kNotIssued = std::numeric_limits<Cycle>::max();

    /**
     * All per-row state, epoch-stamped per merge round: a row's first
     * touch in a round resets all of it. All-zero bytes are a valid
     * never-seen state (epoch 0 is never a live epoch), which is what
     * lets rows_ be a ZeroedTable.
     */
    struct RowState
    {
        std::uint32_t epoch = 0;
        /** Resident lines are exactly {0 .. prefix_len-1}. */
        Index prefix_len = 0;
        /** Un-retired uses in (consumed, cursor]. */
        std::uint32_t ahead = 0;
        /** Earliest unretired stream position of the row; kNoPos
         *  when every use has retired. */
        std::uint32_t first_unretired = kNoPos;
        /** LRU tick of the last touch; 0 = never. */
        std::uint64_t last_touch = 0;
        /** FIFO tick the row became resident; 0 = never. */
        std::uint64_t insert_tick = 0;
        /** The row's entry in rank_. */
        EvictionRank::Slot rank;
        /** First of the row's line slots in line_ready_. */
        std::uint32_t line_off = 0;
        /** The row's entries in demanded_. */
        std::uint32_t dem_len = 0;
    };

    /** Row state with lazy epoch refresh. */
    RowState &
    state(Index row)
    {
        RowState &rs = rows_[row];
        if (rs.epoch != epoch_) {
            rs = RowState{};
            rs.epoch = epoch_;
        }
        return rs;
    }

    /** Data-ready cycle of each resident line of a row. */
    Cycle *
    lineReady(const RowState &rs)
    {
        return line_ready_.data() + rs.line_off;
    }
    const Cycle *
    lineReady(const RowState &rs) const
    {
        return line_ready_.data() + rs.line_off;
    }

    /** Number of buffer lines the given row occupies. */
    Index rowLines(Index row) const;

    /** Bytes of one specific line of a row (tail lines are short). */
    Bytes lineBytes(Index row, Index line) const;

    /**
     * Ensure all lines of `row` are resident; returns false if the
     * cursor must stall (no evictable victim or fetch budget spent).
     * When `count_misses` is set, lines issued to DRAM are tallied in
     * cursor_miss_lines_ for per-position hit/miss accounting.
     */
    bool prefetchRow(Index row, unsigned &budget, bool count_misses,
                     Cycle now);

    /** Re-rank all resident lines of `row` after its next use moved. */
    void reRankRow(Index row);

    /**
     * Effective next use of `row`: the earliest of nextUse() and any
     * pending demand-fetch positions (port heads beyond the look-ahead
     * window that must not be evicted meanwhile).
     */
    std::uint64_t effectiveNextUse(Index row, const RowState &rs) const;

    /**
     * Eviction-ranking key under the configured replacement policy;
     * larger keys are evicted first.
     */
    std::uint64_t rankKey(Index row, const RowState &rs) const;

    /** Maps a row id to its rank_ slot (every row in rank_ has a
     *  current-epoch state). */
    auto
    rankSlot()
    {
        return [this](Index row) -> EvictionRank::Slot & {
            return rows_[row].rank;
        };
    }

    /**
     * Read the full row of stream entry `pos` from DRAM at `now`,
     * unless already issued; true when a read was issued.
     */
    bool streamRow(std::uint64_t pos, Index row, Cycle now);

    /** Evict one victim line; false if nothing is evictable. */
    bool evictOne(std::uint64_t protect_pos);

    /** Record/forget a pending demand-fetch position of a row. */
    void demandInsert(Index row, RowState &rs, std::uint64_t pos);
    void demandErase(Index row, RowState &rs, std::uint64_t pos);

    const SpArchConfig *config_;
    mem::MemoryModel *mem_;

    const std::vector<MultTask> *tasks_ = nullptr;
    const CsrMatrix *b_ = nullptr;
    Bytes b_base_ = 0;

    std::uint64_t window_end_ = 0; //!< look-ahead window extent
    std::uint64_t cursor_ = 0;     //!< next stream entry to prefetch

    /** Next stream position of the same row, or kNoPos. */
    std::vector<std::uint32_t> next_same_row_;

    /** Out-of-order retirement tracking. */
    std::vector<bool> retired_;
    std::uint64_t watermark_ = 0; //!< all entries below are retired

    /** Demand re-fetch budget per cycle (evicted-before-use lines). */
    unsigned demand_budget_ = 0;

    /** Row currently being filled, excluded from eviction. */
    SIndex pinned_row_ = -1;

    /** Flat per-row state table, stamped with epoch epoch_. */
    ZeroedTable<RowState> rows_;
    std::uint32_t epoch_ = 0;

    std::size_t resident_count_ = 0;

    /** Eviction ranking: (rankKey, row) of every cached row, sized
     *  for prefetchLines rows when a round starts. */
    EvictionRank rank_;

    /** Rows with un-retired uses, counted via RowState::ahead. */
    std::size_t ahead_rows_count_ = 0;

    /** Monotonic event counter for recency ordering (sub-cycle). */
    std::uint64_t touch_counter_ = 0;

    /** Line slots of the round's cached rows (RowState::line_off). */
    std::vector<Cycle> line_ready_;

    /**
     * Pending demand-fetch (row, stream position) pairs, sorted. Only
     * a port head polls rowReady() and its retirement erases its
     * entry, so there is at most one entry per merge way.
     */
    std::vector<Demand> demanded_;

    /**
     * Data-ready cycle per stream position of rows read whole instead
     * of cached (rows too long for the buffer, or every row when the
     * prefetcher is off), kNotIssued until read; empty in a round
     * that reads no row whole.
     */
    std::vector<Cycle> streamed_ready_;

    /** Lines issued for the element currently at the cursor. */
    std::uint32_t cursor_miss_lines_ = 0;

    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t buffer_reads_ = 0;
    std::uint64_t buffer_writes_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t stall_cycles_ = 0;
};

} // namespace sparch

#endif // SPARCH_CORE_ROW_PREFETCHER_HH
