/**
 * @file
 * Multiplier array (Section II-E, Table I: 2 groups of 8 FP64
 * multipliers).
 *
 * Consumes the head of the look-ahead FIFO in order; each left element
 * is multiplied against its right-matrix row, producing one partial
 * product per right nonzero, streamed into the merge-tree leaf port of
 * the element's (condensed) column. Throughput is bounded by the
 * multiplier count per cycle and by leaf-FIFO back-pressure.
 *
 * The port scan is event-driven. Once a port's head row is ready it
 * stays ready until the row prefetcher evicts a line (readiness is
 * monotone until an eviction), so the array latches it in a per-port
 * bit, cleared when the head retires and, for all ports, whenever the
 * prefetcher's eviction count moves (checked at cycle start and after
 * every rowReady() poll, since a demand fetch can evict mid-cycle).
 *
 * A port is parked in one of three states that a visit could only
 * find again, and the round-robin scan jumps over runs of parked ports
 * a word at a time (one fused skip word, blocked | quiet | pending):
 *  - Blocked: head latched ready and leaf FIFO full. A visit would
 *    count one port_full_stalls poll and push nothing. Only this array
 *    pushes into fresh leaves during its update.
 *  - Quiet: queue exhausted, or head element not yet landed. A visit
 *    counts nothing. Exhaustion lasts the round and a head arrives only
 *    when a read of its port lands, so the column fetcher's landed bits
 *    wake the port at the next cycle start (wakeLanded()).
 *  - Pending: the last poll returned false and every line of the head
 *    row is issued, landing at RowPrefetcher::pendingUntil(). Until
 *    then a poll returns false and fetches nothing, so a visit would
 *    count one row_wait_stalls poll. The port wakes at that cycle, or
 *    with all others as soon as evictions() moves.
 * A skipped run adds the popcount of its blocked bits to
 * port_full_stalls and of its pending bits to row_wait_stalls, so the
 * counters still count polls. Skipped ports consume no multiplier
 * budget, so the skip is exact; DCHECK builds re-check every skipped
 * port against the predicate of its state.
 */

#ifndef SPARCH_CORE_MULTIPLIER_ARRAY_HH
#define SPARCH_CORE_MULTIPLIER_ARRAY_HH

#include <cstdint>
#include <span>
#include <tuple>
#include <vector>

#include "common/bit_mask.hh"
#include "core/round_stream.hh"
#include "core/sparch_config.hh"
#include "hw/clocked.hh"
#include "hw/merge_tree.hh"
#include "matrix/csr.hh"

namespace sparch
{

class MataColumnFetcher;
class RowPrefetcher;

/** The outer-product multiplier array. */
class MultiplierArray final
{
  public:
    explicit MultiplierArray(const SpArchConfig &config);

    MultiplierArray(const MultiplierArray &) = delete;
    MultiplierArray &operator=(const MultiplierArray &) = delete;

    /** Wire the surrounding pipeline stages. */
    void connect(MataColumnFetcher *fetcher, RowPrefetcher *prefetcher,
                 hw::MergeTree *tree);

    /**
     * Begin a merge round.
     * @param tasks       Element stream (Fig. 7 order).
     * @param a_values    Values of the streamed operand, indexed by
     *                    MultTask::nz.
     * @param b           Right matrix.
     * @param port_queues Per fresh port, the global stream positions
     *                    of its elements in order; ports consume their
     *                    queues independently (64 column fetchers).
     */
    void startRound(const std::vector<MultTask> *tasks,
                    std::span<const Value> a_values, const CsrMatrix *b,
                    const PortQueues *port_queues);

    /** All tasks consumed and all fresh ports finished. */
    bool done() const;

    /** True when a port was visited: any visit polls or moves. */
    bool clockUpdate(Cycle now);
    void recordStats(StatSet &stats) const;

    /** The earliest wake of a pending port. */
    Cycle nextEventCycle(Cycle) const { return next_wake_; }

    /**
     * (round-robin port, port_full_stalls, row_wait_stalls) after k
     * cycles without progress. Such a cycle visits no port: its scan
     * skips every port as parked, counting one poll per blocked and
     * per pending port.
     */
    std::tuple<unsigned, std::uint64_t, std::uint64_t>
    skipped(Cycle k) const;

    void
    skip(Cycle k)
    {
        std::tie(rr_port_, port_full_stalls_, row_wait_stalls_) =
            skipped(k);
    }

    /** Scalar multiplications performed. */
    std::uint64_t multiplies() const { return multiplies_; }

  private:
    /** Drop every latched ready and pending bit if the prefetcher
     *  evicted. */
    void syncEvictions();

    /** Unpark every pending port whose row is ready at `now`. */
    void wakePending(Cycle now);

    /** A skipped port's state predicate holds (DCHECK builds). */
    bool parkedExactly(unsigned port, Cycle now) const;

    const SpArchConfig *config_;
    MataColumnFetcher *fetcher_ = nullptr;
    RowPrefetcher *prefetcher_ = nullptr;
    hw::MergeTree *tree_ = nullptr;

    const std::vector<MultTask> *tasks_ = nullptr;
    std::span<const Value> a_values_;
    const CsrMatrix *b_ = nullptr;
    const PortQueues *port_queues_ = nullptr;
    std::vector<std::size_t> port_cursor_;
    std::vector<Index> product_cursor_; //!< progress inside port heads
    unsigned rr_port_ = 0;
    std::uint64_t remaining_ = 0;

    static constexpr Cycle kNever = ~Cycle{0};

    /** Per port: head arrived and its row polled ready (latched). */
    BitMask head_ready_;
    /** Per port: queue exhausted or head not landed (parked). */
    BitMask quiet_;
    /** Per port: head row fully issued, ready at wake_at_ (parked). */
    BitMask pending_;
    std::vector<Cycle> wake_at_;
    /** Earliest wake_at_ of a pending port; kNever when none. */
    Cycle next_wake_ = kNever;
    /** Prefetcher eviction count the latches were taken under. */
    std::uint64_t seen_evictions_ = 0;

    std::uint64_t multiplies_ = 0;
    std::uint64_t row_wait_stalls_ = 0;
    std::uint64_t port_full_stalls_ = 0;
    std::uint64_t active_cycles_ = 0;
};

} // namespace sparch

#endif // SPARCH_CORE_MULTIPLIER_ARRAY_HH
