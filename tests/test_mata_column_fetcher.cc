/**
 * @file
 * Tests for the per-column MatA fetchers: every queued element arrives
 * exactly once, each port stays within its in-flight window, and the
 * eligible bitmask the issue scan jumps over always equals the scalar
 * per-port predicate, and the landed bits that wake parked multiplier
 * ports name exactly the ports whose reads landed. The landing
 * calendar that holds the in-flight reads must land each read on its
 * cycle and report the earliest landing, near and far alike.
 */

#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/mata_column_fetcher.hh"
#include "mem/hbm_backend.hh"

namespace sparch
{
namespace
{

/** `ports` port queues of random length over one task stream. */
void
randomRound(Rng &rng, unsigned ports, std::vector<MultTask> &tasks,
            std::vector<std::vector<std::uint64_t>> &queues)
{
    tasks.clear();
    queues.assign(ports, {});
    for (unsigned p = 0; p < ports; ++p) {
        // Some ports stay empty; others outlast their window.
        const auto len = rng.nextBounded(3) == 0 ? 0 : rng.nextBounded(40);
        for (std::uint64_t i = 0; i < len; ++i) {
            MultTask t;
            t.port = p;
            t.addr = tasks.size() * bytesPerElement;
            queues[p].push_back(tasks.size());
            tasks.push_back(t);
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
        MataColumnFetcher fetcher(cfg, hbm, "f");
        Rng rng(ports);
        std::vector<MultTask> tasks;
        std::vector<std::vector<std::uint64_t>> queues;
        std::size_t total = 0;
        for (int round = 0; round < 3; ++round) {
            randomRound(rng, ports, tasks, queues);
            fetcher.startRound(&tasks, &queues, 0);
            std::vector<std::size_t> head(ports, 0);
            std::size_t retired = 0;
            for (int cycle = 0; cycle < 200000 && retired < tasks.size();
                 ++cycle) {
                fetcher.clockUpdate();
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
                fetcher.clockApply();
            }
            ASSERT_EQ(retired, tasks.size()) << ports << " ports";
            total += tasks.size();
            for (unsigned p = 0; p < ports; ++p)
                EXPECT_FALSE(fetcher.portEligible(p));
        }
        StatSet stats;
        fetcher.recordStats(stats);
        EXPECT_EQ(stats.get("f.elements_fetched"),
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
        MataColumnFetcher fetcher(cfg, hbm, "f");
        Rng rng(ports + 100);
        std::vector<MultTask> tasks;
        std::vector<std::vector<std::uint64_t>> queues;
        for (int round = 0; round < 3; ++round) {
            randomRound(rng, ports, tasks, queues);
            fetcher.startRound(&tasks, &queues, 0);
            std::vector<bool> arrived(tasks.size(), false);
            std::vector<std::size_t> head(ports, 0);
            std::size_t retired = 0;
            std::size_t landings = 0;
            BitMask quiet;
            quiet.resize(ports);
            for (int cycle = 0; cycle < 200000 && retired < tasks.size();
                 ++cycle) {
                fetcher.clockUpdate();
                std::vector<bool> want(ports, false);
                for (std::size_t pos = 0; pos < tasks.size(); ++pos) {
                    if (!arrived[pos] && fetcher.arrivedAt(pos)) {
                        arrived[pos] = true;
                        want[tasks[pos].port] = true;
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
                fetcher.clockApply();
            }
            ASSERT_EQ(retired, tasks.size()) << ports << " ports";
            EXPECT_EQ(landings, tasks.size());
        }
    }
}

// Reads land at random distances, some past the calendar's bucket
// horizon; the clock either ticks or jumps to earliest(), as the
// cycle loop does. Each cycle must land exactly the reads a
// landing-ordered multimap says are due. The busy pass keeps up to 96
// reads in flight; the sparse pass at most two, so that every bucket
// of the horizon, and the heap beyond it, in turn holds the earliest
// landing.
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
        std::multimap<Cycle, std::uint64_t> model;
        std::uint64_t next_pos = 0;
        std::uint64_t landed = 0;
        Cycle now = 0;
        for (int step = 0; step < 20000; ++step) {
            std::vector<std::uint64_t> got, want;
            calendar.land(now,
                          [&](std::uint64_t pos) { got.push_back(pos); });
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
                calendar.add(now, now + dist, next_pos);
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
