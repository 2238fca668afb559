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
 */

#ifndef SPARCH_CORE_MATA_COLUMN_FETCHER_HH
#define SPARCH_CORE_MATA_COLUMN_FETCHER_HH

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "common/bit_mask.hh"
#include "core/round_stream.hh"
#include "core/sparch_config.hh"
#include "mem/memory_model.hh"
#include "hw/clocked.hh"

namespace sparch
{

/** The per-column left-matrix element fetchers. */
class MataColumnFetcher final : public hw::Clocked
{
  public:
    MataColumnFetcher(const SpArchConfig &config,
                      mem::MemoryModel &mem, std::string name);

    /**
     * Begin a merge round.
     * @param tasks        The round's element stream.
     * @param port_queues  Per fresh port, global stream positions of
     *                     its elements in order.
     * @param rowptr_bytes Row-pointer metadata read up front.
     */
    void startRound(const std::vector<MultTask> *tasks,
                    const std::vector<std::vector<std::uint64_t>>
                        *port_queues,
                    Bytes rowptr_bytes);

    /** True when stream entry `pos` has arrived on chip. */
    bool
    arrivedAt(std::uint64_t pos) const
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

    bool clockUpdate();
    void clockApply();
    void recordStats(StatSet &stats) const;

    /** The earliest in-flight landing. */
    Cycle
    nextEventCycle() const
    {
        return inflight_.empty() ? hw::kNoEvent : inflight_.front().first;
    }

    /** (now, round-robin port) after k cycles without progress. */
    std::tuple<Cycle, unsigned>
    skipped(Cycle k) const
    {
        if (tasks_ == nullptr || port_queues_ == nullptr ||
            port_queues_->empty())
            return {now_ + k, rr_port_};
        const std::size_t n_ports = port_queues_->size();
        return {now_ + k,
                static_cast<unsigned>((rr_port_ + k % n_ports) % n_ports)};
    }

    void skip(Cycle k) { std::tie(now_, rr_port_) = skipped(k); }

    /** Cycles in which at least one element read was issued. */
    std::uint64_t issueCycles() const { return issue_cycles_; }

  private:
    void refreshEligible(unsigned port)
    {
        eligible_.assign(port, canIssue(port));
    }

    const SpArchConfig *config_;
    mem::MemoryModel *mem_;
    Cycle now_ = 0;

    const std::vector<MultTask> *tasks_ = nullptr;
    const std::vector<std::vector<std::uint64_t>> *port_queues_ =
        nullptr;

    std::vector<bool> arrived_;
    std::vector<std::size_t> issued_;  //!< per-port issue cursor
    std::vector<std::size_t> retired_; //!< per-port retire count
    BitMask eligible_;                 //!< per port: canIssue()
    BitMask landed_;                   //!< see wakeLanded()
    bool landed_any_ = false;          //!< landed_ has a set bit
    unsigned rr_port_ = 0;

    /** Stream positions left to issue across all ports. Once zero the
     *  per-cycle port scan is pure overhead and skipped (the
     *  round-robin pointer still rotates, matching hardware). */
    std::uint64_t queued_total_ = 0;
    std::uint64_t issued_total_ = 0;

    /** In-flight reads, a min-heap ordered by completion time. The
     *  heap lives in a member vector so its storage is reused across
     *  rounds instead of reallocated. */
    using Flight = std::pair<Cycle, std::uint64_t>;
    std::vector<Flight> inflight_;

    std::uint64_t elements_fetched_ = 0;
    std::uint64_t issue_cycles_ = 0;

    std::string key_elements_fetched_, key_issue_cycles_;
};

} // namespace sparch

#endif // SPARCH_CORE_MATA_COLUMN_FETCHER_HH
