/**
 * @file
 * MatA column fetcher (Section II-E, Fig. 10; Table I: "64 fetchers
 * support 64 columns of left matrix").
 *
 * One fetcher per selected (condensed) column streams that column's
 * elements from DRAM independently of the other columns — this is what
 * keeps one slow or back-pressured column from starving the rest of
 * the merge tree. Each fetcher runs a small in-flight window ahead of
 * its multiplier consumption. The look-ahead FIFO of Table I is the
 * *prediction* window of the distance-list builder and lives in the
 * row prefetcher, which observes the same element stream in the global
 * Fig. 7 load order.
 *
 * The issue scan is event-driven: a per-port eligible bit (elements
 * left to issue and the window open) is refreshed when the port issues
 * and when its head retires, the only two events that change it, and
 * the round-robin scan jumps over runs of ineligible ports a word at a
 * time. The issue order is the one a port-by-port scan produces.
 *
 * Each landing also sets a per-port landed bit. The multiplier parks
 * ports whose head element has not arrived and wakes them from these
 * bits (wakeLanded()), since a landing is the only event that can make
 * a head arrive.
 *
 * In-flight reads wait in a LandingCalendar, bucketed by landing
 * cycle, so issuing and landing an element cost O(1) instead of a
 * heap push and pop; nextEventCycle() still reports the earliest
 * landing for the cycle loop's quiet-span skip. A read carries its
 * stream position and the port it issued from, since stream entries
 * do not record their port.
 */

#ifndef SPARCH_CORE_MATA_COLUMN_FETCHER_HH
#define SPARCH_CORE_MATA_COLUMN_FETCHER_HH

#include <algorithm>
#include <array>
#include <bit>
#include <compare>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/bit_mask.hh"
#include "common/logging.hh"
#include "core/round_stream.hh"
#include "core/sparch_config.hh"
#include "mem/memory_model.hh"
#include "hw/clocked.hh"

namespace sparch
{

/**
 * In-flight element reads, each a (stream position, port) pair, keyed
 * by landing cycle: one bucket per cycle over the kHorizon cycles
 * ahead of the current one (an intrusive list through a node pool
 * sized for the most reads that can be in flight), and a min-heap for
 * landings beyond it. Adding and landing a read in
 * the horizon cost O(1); reads that land on one cycle land in no
 * particular order.
 *
 * The owner calls land(now) on every cycle it is updated, and the
 * kernel never skips past earliest() without updating it.
 */
class LandingCalendar
{
  public:
    /** Drop every read and size the pool for `max_inflight` reads. */
    void
    reset(std::size_t max_inflight)
    {
        nodes_.resize(max_inflight);
        free_ = kNil;
        for (std::size_t i = max_inflight; i-- > 0;) {
            nodes_[i].next = free_;
            free_ = static_cast<std::uint32_t>(i);
        }
        head_.fill(kNil);
        busy_.fill(0);
        far_.clear();
        far_.reserve(max_inflight);
    }

    /** A read issued at `now` lands at `ready` (no earlier than now+1). */
    void
    add(Cycle now, Cycle ready, std::uint32_t pos, std::uint32_t port)
    {
        const Cycle at = std::max(ready, now + 1);
        if (at - now >= kHorizon) {
            far_.push_back({at, pos, port});
            std::push_heap(far_.begin(), far_.end(), std::greater<>{});
            return;
        }
        SPARCH_ASSERT(free_ != kNil, "more reads in flight than the "
                      "calendar was sized for (", nodes_.size(), ")");
        const std::uint32_t n = free_;
        free_ = nodes_[n].next;
        const auto b = static_cast<std::size_t>(at % kHorizon);
        nodes_[n] = {pos, port, head_[b]};
        head_[b] = n;
        busy_[b / 64] |= std::uint64_t{1} << (b % 64);
    }

    /** Call on_land(pos, port) for every read that lands at `now`;
     *  true if any did. */
    template <typename OnLand>
    bool
    land(Cycle now, OnLand &&on_land)
    {
        bool any = false;
        const auto b = static_cast<std::size_t>(now % kHorizon);
        if ((busy_[b / 64] >> (b % 64)) & 1) {
            busy_[b / 64] &= ~(std::uint64_t{1} << (b % 64));
            for (std::uint32_t n = head_[b]; n != kNil;) {
                const std::uint32_t next = nodes_[n].next;
                on_land(nodes_[n].pos, nodes_[n].port);
                nodes_[n].next = free_;
                free_ = n;
                n = next;
            }
            head_[b] = kNil;
            any = true;
        }
        while (!far_.empty() && far_.front().at <= now) {
            on_land(far_.front().pos, far_.front().port);
            std::pop_heap(far_.begin(), far_.end(), std::greater<>{});
            far_.pop_back();
            any = true;
        }
        return any;
    }

    /** The earliest landing at or after `now`, or hw::kNoEvent. */
    Cycle
    earliest(Cycle now) const
    {
        Cycle next = far_.empty() ? hw::kNoEvent : far_.front().at;
        const auto start = static_cast<std::size_t>(now % kHorizon);
        // Scan the bucket bits from `start` round to start - 1.
        for (std::size_t k = 0; k <= kWords; ++k) {
            const std::size_t w = (start / 64 + k) % kWords;
            std::uint64_t bits = busy_[w];
            if (k == 0)
                bits &= ~std::uint64_t{0} << (start % 64);
            else if (k == kWords)
                bits &= ~(~std::uint64_t{0} << (start % 64));
            if (bits != 0) {
                const std::size_t b =
                    w * 64 +
                    static_cast<std::size_t>(std::countr_zero(bits));
                return std::min(next,
                                now + (b + kHorizon - start) % kHorizon);
            }
        }
        return next;
    }

  private:
    static constexpr std::size_t kHorizon = 1024;
    static constexpr std::size_t kWords = kHorizon / 64;
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    struct Node
    {
        std::uint32_t pos;
        std::uint32_t port;
        std::uint32_t next;
    };

    /** A read beyond the horizon; the heap orders by landing cycle. */
    struct Far
    {
        Cycle at;
        std::uint32_t pos;
        std::uint32_t port;

        auto operator<=>(const Far &) const = default;
    };

    /** Node pool: each node is on the free list or in one bucket. */
    std::vector<Node> nodes_;
    std::uint32_t free_ = kNil;
    /** Bucket b holds the reads landing on cycles congruent to b. */
    std::array<std::uint32_t, kHorizon> head_{};
    /** One bit per nonempty bucket. */
    std::array<std::uint64_t, kWords> busy_{};
    /** Reads landing kHorizon or more cycles after their issue. */
    std::vector<Far> far_;
};

/** The per-column left-matrix element fetchers. */
class MataColumnFetcher final
{
  public:
    MataColumnFetcher(const SpArchConfig &config, mem::MemoryModel &mem);

    MataColumnFetcher(const MataColumnFetcher &) = delete;
    MataColumnFetcher &operator=(const MataColumnFetcher &) = delete;

    /**
     * Begin a merge round.
     * @param tasks        The round's element stream.
     * @param port_queues  Per fresh port, global stream positions of
     *                     its elements in order.
     * @param a_base       DRAM base address of the streamed operand.
     * @param rowptr_bytes Row-pointer metadata read up front.
     * @param now          The round's first cycle: the metadata read
     *                     issues then, and the round-robin scan
     *                     starts at port 0 then.
     */
    void startRound(const std::vector<MultTask> *tasks,
                    const PortQueues *port_queues, Bytes a_base,
                    Bytes rowptr_bytes, Cycle now);

    /** Free the round's per-element state once the last round ran. */
    void releaseRound();

    /** True when stream entry `pos` has arrived on chip. */
    bool
    arrivedAt(std::uint32_t pos) const
    {
        return arrived_[pos];
    }

    /** Called by the multiplier when a port's head element retires. */
    void
    noteConsumed(unsigned port)
    {
        ++retired_[port];
        refreshEligible(port);
    }

    /**
     * Clear in `quiet` the bit of every port one of whose reads landed
     * since the last call, then forget those landings.
     */
    void
    wakeLanded(BitMask &quiet)
    {
        if (!landed_any_)
            return;
        quiet.clearBits(landed_);
        landed_.clearAll();
        landed_any_ = false;
    }

    /** The port's eligible bit, as the issue scan sees it. */
    bool portEligible(unsigned port) const { return eligible_.test(port); }

    /**
     * True when the port has elements left to issue and fewer than
     * aElementWindow of them in flight or unretired.
     */
    bool
    canIssue(unsigned port) const
    {
        return issued_[port] < (*port_queues_)[port].size() &&
               issued_[port] - retired_[port] < config_->aElementWindow;
    }

    bool clockUpdate(Cycle now);
    void recordStats(StatSet &stats) const;

    /** The earliest in-flight landing. */
    Cycle
    nextEventCycle(Cycle now) const
    {
        return inflight_.earliest(now);
    }

    /** Cycles in which at least one element read was issued. */
    std::uint64_t issueCycles() const { return issue_cycles_; }

  private:
    void refreshEligible(unsigned port)
    {
        eligible_.assign(port, canIssue(port));
    }

    const SpArchConfig *config_;
    mem::MemoryModel *mem_;

    const std::vector<MultTask> *tasks_ = nullptr;
    const PortQueues *port_queues_ = nullptr;
    Bytes a_base_ = 0;

    std::vector<bool> arrived_;
    std::vector<std::size_t> issued_;  //!< per-port issue cursor
    std::vector<std::size_t> retired_; //!< per-port retire count
    BitMask eligible_;                 //!< per port: canIssue()
    BitMask landed_;                   //!< see wakeLanded()
    bool landed_any_ = false;          //!< landed_ has a set bit
    /** The round's first cycle. The round-robin pointer moves one port
     *  per cycle from port 0 there, so on cycle `now` it is
     *  (now - round_start_) mod ports. */
    Cycle round_start_ = 0;

    /** Stream positions left to issue across all ports. Once zero the
     *  per-cycle port scan is pure overhead and skipped. */
    std::uint64_t queued_total_ = 0;
    std::uint64_t issued_total_ = 0;

    /** In-flight reads by landing cycle; storage is reused across
     *  rounds. */
    LandingCalendar inflight_;

    std::uint64_t elements_fetched_ = 0;
    std::uint64_t issue_cycles_ = 0;
};

} // namespace sparch

#endif // SPARCH_CORE_MATA_COLUMN_FETCHER_HH
