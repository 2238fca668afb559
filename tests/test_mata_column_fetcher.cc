/**
 * @file
 * Tests for the per-column MatA fetchers: every queued element arrives
 * exactly once, each port stays within its in-flight window, and the
 * eligible bitmask the issue scan jumps over always equals the scalar
 * per-port predicate, and the landed bits that wake parked multiplier
 * ports name exactly the ports whose reads landed. The round-robin
 * pointer restarts at port 0 on each round's first cycle and moves one
 * port per cycle, skipped ones included. The landing calendar that
 * holds the in-flight reads must land each read, with its port, on its
 * cycle and report the earliest landing, near and far alike.
 */

#include <map>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/mata_column_fetcher.hh"
#include "hw/clocked.hh"
#include "mem/hbm_backend.hh"

namespace sparch
{
namespace
{

/** `ports` port queues of random length over one task stream. */
void
randomRound(Rng &rng, unsigned ports, std::vector<MultTask> &tasks,
            PortQueues &queues)
{
    tasks.clear();
    queues.assign(ports, {});
    for (unsigned p = 0; p < ports; ++p) {
        // Some ports stay empty; others outlast their window.
        const auto len = rng.nextBounded(3) == 0 ? 0 : rng.nextBounded(40);
        for (std::uint64_t i = 0; i < len; ++i) {
            const auto pos = static_cast<std::uint32_t>(tasks.size());
            queues[p].push_back(pos);
            tasks.push_back({0, 0, pos});
        }
    }
}

// Port counts below, at and across 64-bit word boundaries.
TEST(MataColumnFetcher, EligibleBitsMatchScalarPredicate)
{
    for (const unsigned ports : {1u, 5u, 64u, 65u, 130u}) {
        SpArchConfig cfg;
        cfg.aElementWindow = 3;
        cfg.mataFetchWidth = 4;
        mem::HbmBackend hbm(cfg.memory.hbm);
        MataColumnFetcher fetcher(cfg, hbm);
        Rng rng(ports);
        std::vector<MultTask> tasks;
        PortQueues queues;
        std::size_t total = 0;
        Cycle now = 0;
        for (int round = 0; round < 3; ++round) {
            randomRound(rng, ports, tasks, queues);
            fetcher.startRound(&tasks, &queues, 0, 0, now);
            std::vector<std::size_t> head(ports, 0);
            std::size_t retired = 0;
            for (int cycle = 0; cycle < 200000 && retired < tasks.size();
                 ++cycle, ++now) {
                fetcher.clockUpdate(now);
                // Retire arrived heads on a random subset of ports, as
                // a back-pressured multiplier would.
                for (unsigned p = 0; p < ports; ++p) {
                    if (head[p] < queues[p].size() &&
                        fetcher.arrivedAt(queues[p][head[p]]) &&
                        rng.nextBool(0.3)) {
                        ++head[p];
                        ++retired;
                        fetcher.noteConsumed(p);
                    }
                }
                for (unsigned p = 0; p < ports; ++p) {
                    ASSERT_EQ(fetcher.portEligible(p),
                              fetcher.canIssue(p))
                        << "port " << p << " of " << ports;
                }
            }
            ASSERT_EQ(retired, tasks.size()) << ports << " ports";
            total += tasks.size();
            for (unsigned p = 0; p < ports; ++p)
                EXPECT_FALSE(fetcher.portEligible(p));
        }
        StatSet stats;
        fetcher.recordStats(stats);
        EXPECT_EQ(stats.get("mata_fetcher.elements_fetched"),
                  static_cast<double>(total));
    }
}

// The multiplier parks ports whose head has not arrived and wakes them
// from the landed bits, so a landing the bits miss would stall a port
// for good. Port counts span 64-bit word boundaries.
TEST(MataColumnFetcher, LandedBitsMatchLandings)
{
    for (const unsigned ports : {1u, 5u, 64u, 65u, 130u}) {
        SpArchConfig cfg;
        cfg.aElementWindow = 3;
        cfg.mataFetchWidth = 4;
        mem::HbmBackend hbm(cfg.memory.hbm);
        MataColumnFetcher fetcher(cfg, hbm);
        Rng rng(ports + 100);
        std::vector<MultTask> tasks;
        PortQueues queues;
        Cycle now = 0;
        for (int round = 0; round < 3; ++round) {
            randomRound(rng, ports, tasks, queues);
            fetcher.startRound(&tasks, &queues, 0, 0, now);
            std::vector<bool> arrived(tasks.size(), false);
            std::vector<unsigned> port_of(tasks.size());
            for (unsigned p = 0; p < ports; ++p) {
                for (const std::uint32_t pos : queues[p])
                    port_of[pos] = p;
            }
            std::vector<std::size_t> head(ports, 0);
            std::size_t retired = 0;
            std::size_t landings = 0;
            BitMask quiet;
            quiet.resize(ports);
            for (int cycle = 0; cycle < 200000 && retired < tasks.size();
                 ++cycle, ++now) {
                fetcher.clockUpdate(now);
                std::vector<bool> want(ports, false);
                for (std::size_t pos = 0; pos < tasks.size(); ++pos) {
                    if (!arrived[pos] && fetcher.arrivedAt(pos)) {
                        arrived[pos] = true;
                        want[port_of[pos]] = true;
                        ++landings;
                    }
                }
                // Waking clears the quiet bits of exactly the landed
                // ports, then forgets the landings.
                for (unsigned p = 0; p < ports; ++p)
                    quiet.set(p);
                fetcher.wakeLanded(quiet);
                for (unsigned p = 0; p < ports; ++p)
                    ASSERT_EQ(quiet.test(p), !want[p]) << "port " << p;
                for (unsigned p = 0; p < ports; ++p)
                    quiet.set(p);
                fetcher.wakeLanded(quiet);
                for (unsigned p = 0; p < ports; ++p)
                    ASSERT_TRUE(quiet.test(p)) << "port " << p;
                for (unsigned p = 0; p < ports; ++p) {
                    if (head[p] < queues[p].size() &&
                        fetcher.arrivedAt(queues[p][head[p]]) &&
                        rng.nextBool(0.3)) {
                        ++head[p];
                        ++retired;
                        fetcher.noteConsumed(p);
                    }
                }
            }
            ASSERT_EQ(retired, tasks.size()) << ports << " ports";
            EXPECT_EQ(landings, tasks.size());
        }
    }
}

/** A memory that lands every read kLatency cycles after its issue and
 *  logs (issue cycle, address / bytesPerElement) of each. */
class FixedLatency final : public mem::MemoryModel
{
  public:
    static constexpr Cycle kLatency = 10;

    Bytes peakBytesPerCycle() const override { return 0; }
    mem::MemoryKind
    kind() const override
    {
        return mem::MemoryKind::Ideal;
    }

    std::vector<std::pair<Cycle, Bytes>> reads;

  protected:
    Cycle
    timeAccess(Bytes addr, Bytes, Cycle now, bool) override
    {
        reads.emplace_back(now, addr / bytesPerElement);
        return now + kLatency;
    }

    void resetTiming() override {}
};

/**
 * Retires the head of every port at once, on the cycle the last of
 * those heads has arrived, so that after each batch every port with
 * elements left is eligible on the same cycle.
 */
class BatchConsumer
{
  public:
    BatchConsumer(MataColumnFetcher &fetcher, const PortQueues &queues)
        : fetcher_(&fetcher), queues_(&queues)
    {}

    void startRound() { head_.assign(queues_->size(), 0); }

    bool
    clockUpdate(Cycle)
    {
        bool any = false;
        for (std::size_t p = 0; p < queues_->size(); ++p) {
            if (head_[p] == (*queues_)[p].size())
                continue;
            if (!fetcher_->arrivedAt((*queues_)[p][head_[p]]))
                return false;
            any = true;
        }
        for (std::size_t p = 0; any && p < queues_->size(); ++p) {
            if (head_[p] < (*queues_)[p].size()) {
                ++head_[p];
                fetcher_->noteConsumed(static_cast<unsigned>(p));
            }
        }
        return any;
    }

    Cycle nextEventCycle(Cycle) const { return hw::kNoEvent; }

    void recordStats(StatSet &) const {}

    bool
    done() const
    {
        for (std::size_t p = 0; p < queues_->size(); ++p) {
            if (head_[p] < (*queues_)[p].size())
                return false;
        }
        return true;
    }

  private:
    MataColumnFetcher *fetcher_;
    const PortQueues *queues_;
    std::vector<std::size_t> head_;
};

// Three ports of two elements each, one read per cycle and one element
// in flight per port. Each round issues every port's first element,
// waits out a quiet span that the kernel skips (or, under DCHECK,
// ticks through), lands and retires them, and issues the second
// elements from the port the round-robin pointer names on that cycle:
// (cycle - round start) mod 3. The second round starts on cycle 26,
// not a multiple of 3, so a pointer taken from the absolute cycle, or
// one that a skip does not advance, issues in another order.
TEST(MataColumnFetcher, RoundRobinPointerCountsFromTheRoundStart)
{
    SpArchConfig cfg;
    cfg.aElementWindow = 1;
    cfg.mataFetchWidth = 1;
    FixedLatency mem;
    MataColumnFetcher fetcher(cfg, mem);
    std::vector<MultTask> tasks;
    PortQueues queues(3);
    for (unsigned p = 0; p < 3; ++p) {
        for (unsigned i = 0; i < 2; ++i) {
            queues[p].push_back(static_cast<std::uint32_t>(tasks.size()));
            // The operand position names (port, index) in the log.
            tasks.push_back({0, 0, 100 * p + i});
        }
    }
    BatchConsumer consumer(fetcher, queues);
    hw::SimKernel<MataColumnFetcher, BatchConsumer> kernel(fetcher,
                                                           consumer);

    // (issue cycle, 100 * port + index) of every read, per round.
    using Log = std::vector<std::pair<Cycle, Bytes>>;
    const Log want[] = {
        {{0, 0}, {1, 100}, {2, 200}, {13, 101}, {14, 201}, {15, 1}},
        {{26, 0}, {27, 100}, {28, 200}, {39, 101}, {40, 201}, {41, 1}},
    };
    for (const Log &round : want) {
        ASSERT_EQ(kernel.now(), round.front().first);
        mem.reads.clear();
        consumer.startRound();
        fetcher.startRound(&tasks, &queues, 0, 0, kernel.now());
        ASSERT_TRUE(
            kernel.run([&](Cycle) { return consumer.done(); }, 1000));
        EXPECT_EQ(mem.reads, round);
    }
    // Each round skips two quiet spans of 6 cycles: one while the
    // first elements are in flight, one while the second ones are.
    StatSet stats;
    kernel.recordStats(stats);
    EXPECT_EQ(stats.get("kernel.skip_spans"), 4);
    EXPECT_EQ(stats.get("kernel.skipped_cycles"), 24);
    EXPECT_EQ(stats.get("mata_fetcher.issue_cycles"), 12);
}

// Reads land at random distances, some past the calendar's bucket
// horizon; the clock either ticks or jumps to earliest(), as the
// cycle loop does. Each cycle must land exactly the reads a
// landing-ordered multimap says are due, each with its port. The
// busy pass keeps up to 96 reads in flight; the sparse pass at most
// two, so that every bucket of the horizon, and the heap beyond it, in
// turn holds the earliest landing.
TEST(LandingCalendar, LandsEveryReadOnItsCycle)
{
    struct Pass
    {
        std::size_t max_inflight;
        std::uint64_t adds_per_cycle;
        std::uint64_t near, far;
    };
    const Pass busy{96, 4, 300, 5000};
    const Pass sparse{2, 2, 2500, 2500};
    for (const Pass &pass : {busy, sparse}) {
        Rng rng(5 + pass.max_inflight);
        LandingCalendar calendar;
        calendar.reset(pass.max_inflight);
        std::multimap<Cycle, std::uint32_t> model;
        std::uint32_t next_pos = 0;
        const auto port_of = [](std::uint32_t pos) { return pos % 61; };
        std::uint64_t landed = 0;
        Cycle now = 0;
        for (int step = 0; step < 20000; ++step) {
            std::vector<std::uint32_t> got, want;
            calendar.land(now, [&](std::uint32_t pos, std::uint32_t port) {
                EXPECT_EQ(port, port_of(pos)) << "read " << pos;
                got.push_back(pos);
            });
            while (!model.empty() && model.begin()->first <= now) {
                want.push_back(model.begin()->second);
                model.erase(model.begin());
            }
            std::sort(got.begin(), got.end());
            std::sort(want.begin(), want.end());
            ASSERT_EQ(got, want) << "cycle " << now;
            landed += got.size();

            for (auto k = rng.nextBounded(pass.adds_per_cycle);
                 k > 0 && model.size() < pass.max_inflight; --k) {
                const auto dist = rng.nextBounded(8) == 0
                                      ? rng.nextBounded(pass.far)
                                      : rng.nextBounded(pass.near);
                calendar.add(now, now + dist, next_pos, port_of(next_pos));
                model.emplace(std::max(now + dist, now + 1), next_pos);
                ++next_pos;
            }
            const Cycle next = ++now;
            const Cycle earliest = calendar.earliest(next);
            ASSERT_EQ(earliest, model.empty() ? hw::kNoEvent
                                              : model.begin()->first)
                << "cycle " << next;
            // Jump over quiet spans half of the time.
            if (!model.empty() && rng.nextBounded(2) == 0)
                now = earliest;
        }
        EXPECT_GT(landed, 5000u);
    }
}

} // namespace
} // namespace sparch
