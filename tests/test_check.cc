/**
 * @file
 * Tests for the deterministic concurrency harness (src/check/):
 * Schedule replay guarantees, StressRunner seed exploration, and
 * seeded stress scenarios over the real concurrency layer — the
 * work-stealing ThreadPool and the fork/exec ProcessPoolExecutor's
 * kill-during-requeue and cache-flush-during-kill paths.
 *
 * The load-bearing property: a failing stress seed printed by
 * StressRunner::explore reproduces the identical decision trace (and
 * failure) when fed back to runSeed — the trace is a pure function of
 * the seed, so "stress <name>: seed 0x... failed" is the whole
 * reproducer.
 */

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "check/invariants.hh"
#include "check/schedule.hh"
#include "check/stress_runner.hh"
#include "common/logging.hh"
#include "driver/batch_runner.hh"
#include "driver/result_cache.hh"
#include "driver/thread_pool.hh"
#include "driver/workload.hh"
#include "exec/local_executors.hh"
#include "exec/process_pool_executor.hh"
#include "matrix/generators.hh"
#include "matrix/reference_spgemm.hh"
#include "temp_path.hh"

#ifndef SPARCH_CLI_BINARY
#define SPARCH_CLI_BINARY ""
#endif

namespace sparch
{
namespace
{

using check::Schedule;
using check::ScheduleGuard;
using check::StressOutcome;
using check::StressRunner;
using check::StressSummary;
using driver::BatchRecord;
using driver::BatchRunner;
using driver::ResultCache;
using driver::RunStats;
using driver::ThreadPool;
using driver::Workload;

/** Skips the test when the sparch binary is not built alongside. */
#define REQUIRE_WORKER_BINARY()                                        \
    do {                                                               \
        if (!std::filesystem::exists(SPARCH_CLI_BINARY))               \
            GTEST_SKIP() << "sparch binary not found at '"             \
                         << SPARCH_CLI_BINARY << "'";                  \
    } while (0)

/** Sets an environment variable for one scope. */
struct ScopedEnv
{
    std::string name;
    ScopedEnv(const std::string &n, const std::string &value) : name(n)
    {
        ::setenv(name.c_str(), value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name.c_str()); }
};

// ------------------------------------------------------ Schedule core

TEST(Schedule, DrawsArePureFunctionsOfSeedSlotAndIndex)
{
    Schedule a(0x5eed);
    Schedule b(0x5eed);
    // Interleave arbitrarily across slots: stream values must depend
    // only on (seed, slot, index), not on draw order between slots.
    std::vector<std::uint64_t> a0, a1;
    for (int i = 0; i < 8; ++i) {
        a0.push_back(a.draw(0));
        if (i % 2 == 0)
            a1.push_back(a.draw(1));
    }
    std::vector<std::uint64_t> b1, b0;
    for (int i = 0; i < 4; ++i)
        b1.push_back(b.draw(1));
    for (int i = 0; i < 8; ++i)
        b0.push_back(b.draw(0));
    EXPECT_EQ(a0, b0);
    EXPECT_EQ(a1, b1);
}

TEST(Schedule, ConcurrentDrawersGetIdenticalPerSlotStreams)
{
    // Two schedules, same seed; draw each slot from its own thread in
    // racing order. Per-slot streams and the full trace must match.
    const auto run = [](Schedule &s) {
        std::vector<std::thread> threads;
        for (unsigned slot = 0; slot < 4; ++slot) {
            threads.emplace_back([&s, slot] {
                for (int i = 0; i < 32; ++i)
                    s.draw(slot);
            });
        }
        for (std::thread &t : threads)
            t.join();
    };
    Schedule a(0xfeedULL), b(0xfeedULL);
    run(a);
    run(b);
    EXPECT_EQ(a.trace(), b.trace());
    EXPECT_FALSE(a.trace().empty());
}

TEST(Schedule, DifferentSeedsDiverge)
{
    Schedule a(1), b(2);
    EXPECT_NE(a.draw(0), b.draw(0));
}

TEST(Schedule, PickStaysInBoundsAndDecideIsBinary)
{
    Schedule s(0xabcdef);
    for (int i = 0; i < 100; ++i)
        EXPECT_LT(s.pick(3, 7), 7u);
    bool seen[2] = {false, false};
    for (int i = 0; i < 64; ++i)
        seen[s.decide(4) ? 1 : 0] = true;
    EXPECT_TRUE(seen[0]);
    EXPECT_TRUE(seen[1]);
}

TEST(Schedule, PointsFireOnlyUnderAGuard)
{
    EXPECT_EQ(check::activeSchedule(), nullptr);
    SPARCH_SCHEDULE_POINT("test.inactive"); // must be a no-op
    Schedule s(7);
    {
        ScheduleGuard guard(s);
        EXPECT_EQ(check::activeSchedule(), &s);
        SPARCH_SCHEDULE_POINT("test.active");
        SPARCH_SCHEDULE_POINT("test.active");
    }
    EXPECT_EQ(check::activeSchedule(), nullptr);
    EXPECT_EQ(s.pointsHit(), 2u);
}

TEST(Schedule, ThreadPoolHooksFireUnderAnActiveSchedule)
{
    // The SPARCH_SCHEDULE_POINT hooks compiled into ThreadPool must
    // reach the active schedule: running any work hits at least the
    // enqueue and task-start points.
    Schedule s(99);
    {
        ScheduleGuard guard(s);
        ThreadPool pool(2);
        std::atomic<int> ran{0};
        std::vector<std::future<void>> futures;
        for (int i = 0; i < 8; ++i)
            futures.push_back(pool.submit([&ran] { ++ran; }));
        for (auto &f : futures)
            f.get();
        EXPECT_EQ(ran.load(), 8);
    }
    EXPECT_GT(s.pointsHit(), 0u);
}

// ------------------------------------------------- StressRunner replay

TEST(StressRunner, CleanScenarioReportsNoFailures)
{
    StressRunner runner("clean", [](Schedule &s) {
        SPARCH_ASSERT(s.pick(0, 10) < 10, "pick out of bounds");
    });
    const StressSummary summary = runner.explore(0xc0ffee, 100);
    EXPECT_EQ(summary.runs, 100u);
    EXPECT_EQ(summary.failures, 0u);
    EXPECT_FALSE(summary.hasFailingSeed);
}

TEST(StressRunner, ForcedFailureReplaysBitExactFromThePrintedSeed)
{
    // A scenario that fails for roughly a quarter of all seeds: the
    // forced-failure proof that a printed seed is a full reproducer.
    const auto scenario = [](Schedule &s) {
        const std::uint64_t a = s.draw(0);
        const std::uint64_t b = s.draw(1);
        SPARCH_ASSERT((a ^ b) % 4 != 0, "injected stress failure ",
                      (a ^ b) % 4);
    };
    StressRunner runner("forced-failure", scenario);

    std::ostringstream log;
    const StressSummary summary = runner.explore(0xdead, 100, &log);
    ASSERT_TRUE(summary.hasFailingSeed);
    EXPECT_GT(summary.failures, 0u);

    // The printed line alone carries the reproducer: parse the first
    // failing seed back out of the log text.
    const std::string text = log.str();
    const std::size_t at = text.find("seed 0x");
    ASSERT_NE(at, std::string::npos) << text;
    std::uint64_t printed = 0;
    ASSERT_EQ(std::sscanf(text.c_str() + at, "seed 0x%lx", &printed),
              1);
    EXPECT_EQ(printed, summary.firstFailingSeed);

    // Replaying the printed seed reproduces the identical failure —
    // same message, same decision trace, byte for byte, every time.
    const StressOutcome first = runner.runSeed(printed);
    const StressOutcome second = runner.runSeed(printed);
    EXPECT_TRUE(first.failed);
    EXPECT_TRUE(second.failed);
    EXPECT_EQ(first.message, second.message);
    EXPECT_EQ(first.trace, second.trace);
    EXPECT_FALSE(first.trace.empty());
    EXPECT_EQ(first.message, summary.firstFailureMessage);
}

TEST(StressRunner, DerivedSeedsAreReconstructible)
{
    const StressRunner runner("noop", [](Schedule &) {});
    std::set<std::uint64_t> seen;
    for (std::size_t i = 0; i < 100; ++i) {
        const std::uint64_t seed = StressRunner::derivedSeed(42, i);
        EXPECT_EQ(seed, StressRunner::derivedSeed(42, i));
        seen.insert(seed);
    }
    EXPECT_EQ(seen.size(), 100u); // decorrelated, no collisions
}

// --------------------------------------------- ThreadPool stress suite

TEST(ThreadPoolStress, StealsPastABlockedWorker)
{
    // One task parks a worker until every other task has finished:
    // completing at all proves the other worker steals past the
    // blocked deque rather than waiting behind it.
    StressRunner runner("steal-past-blocked", [](Schedule &s) {
        const int tasks = 4 + static_cast<int>(s.pick(0, 9));
        std::atomic<int> done{0};
        {
            ThreadPool pool(2);
            pool.submit([&done, tasks] {
                while (done.load() < tasks)
                    std::this_thread::yield();
            });
            for (int i = 0; i < tasks; ++i)
                pool.submit([&done] { ++done; });
            pool.waitIdle();
        }
        SPARCH_ASSERT(done.load() == tasks, "ran ", done.load(),
                      " of ", tasks, " stealable tasks");
    });
    const StressSummary summary = runner.explore(0x57ea1, 100);
    EXPECT_EQ(summary.runs, 100u);
    EXPECT_EQ(summary.failures, 0u)
        << "first failing seed 0x" << std::hex
        << summary.firstFailingSeed << ": "
        << summary.firstFailureMessage;
}

TEST(ThreadPoolStress, TaskThrowsWhileAnotherWorkerIsStealing)
{
    // A throwing task must surface in exactly its own future while
    // thieves keep draining the rest of the queue.
    StressRunner runner("throw-while-stealing", [](Schedule &s) {
        const int tasks = 6 + static_cast<int>(s.pick(0, 7));
        const int thrower = static_cast<int>(
            s.pick(1, static_cast<std::uint64_t>(tasks)));
        std::atomic<int> ran{0};
        std::vector<std::future<void>> futures;
        {
            ThreadPool pool(2);
            for (int i = 0; i < tasks; ++i) {
                futures.push_back(pool.submit([&ran, i, thrower] {
                    ++ran;
                    if (i == thrower)
                        throw std::runtime_error("injected");
                }));
            }
            pool.waitIdle();
        }
        int threw = 0;
        for (int i = 0; i < tasks; ++i) {
            try {
                futures[static_cast<std::size_t>(i)].get();
            } catch (const std::runtime_error &) {
                ++threw;
                SPARCH_ASSERT(i == thrower, "task ", i,
                              " threw; expected only ", thrower);
            }
        }
        SPARCH_ASSERT(threw == 1, threw, " tasks threw");
        SPARCH_ASSERT(ran.load() == tasks, "ran ", ran.load(), " of ",
                      tasks, " tasks despite one throwing");
    });
    const StressSummary summary = runner.explore(0x7407, 100);
    EXPECT_EQ(summary.runs, 100u);
    EXPECT_EQ(summary.failures, 0u)
        << "first failing seed 0x" << std::hex
        << summary.firstFailingSeed << ": "
        << summary.firstFailureMessage;
}

TEST(ThreadPoolStress, QueuedTasksAreNeverDroppedOnShutdown)
{
    // The destructor drains: tearing the pool down right after a
    // burst of submissions must still run every queued task.
    StressRunner runner("shutdown-drain", [](Schedule &s) {
        const unsigned threads = 1 + static_cast<unsigned>(s.pick(0, 4));
        const int tasks = 8 + static_cast<int>(s.pick(1, 25));
        std::atomic<int> ran{0};
        {
            ThreadPool pool(threads);
            for (int i = 0; i < tasks; ++i)
                pool.submit([&ran] { ++ran; });
            // No waitIdle: the destructor races the queue directly.
        }
        SPARCH_ASSERT(ran.load() == tasks, "shutdown dropped ",
                      tasks - ran.load(), " of ", tasks,
                      " queued tasks");
    });
    const StressSummary summary = runner.explore(0xd7a1, 100);
    EXPECT_EQ(summary.runs, 100u);
    EXPECT_EQ(summary.failures, 0u)
        << "first failing seed 0x" << std::hex
        << summary.firstFailingSeed << ": "
        << summary.firstFailureMessage;
}

// ------------------------------------------- ProcessPool stress suite

/** A small all-spec'd grid every worker subprocess can rebuild. */
void
fillStressGrid(BatchRunner &runner)
{
    const std::vector<std::pair<std::string, SpArchConfig>> configs = {
        {"table-I", SpArchConfig{}},
    };
    const std::vector<Workload> workloads = {
        driver::uniformWorkload(32, 32, 200, 21),
        driver::rmatWorkload(64, 4, 22),
        driver::dnnLayerWorkload(32, 16, 0.1, 23),
    };
    runner.addShardSweep(configs, workloads, {1, 2});
}

std::string
csvOf(const std::vector<BatchRecord> &records)
{
    std::ostringstream out;
    BatchRunner::writeCsv(records, out);
    return out.str();
}

/** The grid's records simulated serially in-process: the oracle. */
std::string
baselineCsv()
{
    BatchRunner runner(1);
    fillStressGrid(runner);
    exec::InlineExecutor serial;
    return csvOf(runner.run(serial, nullptr, nullptr));
}

exec::ProcessPoolExecutor
procsExecutor(unsigned procs)
{
    exec::ProcessPoolOptions options;
    options.procs = procs;
    options.workerBinary = SPARCH_CLI_BINARY;
    return exec::ProcessPoolExecutor(options);
}

TEST(ProcessPoolStress, KillDuringRequeueOverHundredInterleavings)
{
    REQUIRE_WORKER_BINARY();
    const std::string oracle = baselineCsv();

    // Worker 0 hard-exits after 1-2 records every run; its in-flight
    // task requeues to the survivors. Whatever the interleaving, the
    // sweep must complete with zero failures and the records must be
    // byte-identical to the serial oracle.
    StressRunner runner("kill-during-requeue", [&oracle](Schedule &s) {
        const ScopedEnv kill(
            "SPARCH_TEST_KILL_WORKER_AFTER",
            std::to_string(1 + s.pick(0, 2)));
        const unsigned procs = 2 + static_cast<unsigned>(s.pick(1, 2));

        BatchRunner batch(1);
        fillStressGrid(batch);
        exec::ProcessPoolExecutor executor = procsExecutor(procs);
        RunStats stats;
        const std::vector<BatchRecord> records =
            batch.run(executor, nullptr, &stats);
        SPARCH_ASSERT(stats.failed == 0, stats.failed,
                      " grid points failed after worker kill");
        SPARCH_ASSERT(csvOf(records) == oracle,
                      "records diverge from the serial oracle after "
                      "requeue");
    });
    const StressSummary summary = runner.explore(0x4b11, 100);
    EXPECT_EQ(summary.runs, 100u);
    EXPECT_EQ(summary.failures, 0u)
        << "first failing seed 0x" << std::hex
        << summary.firstFailingSeed << ": "
        << summary.firstFailureMessage;
}

TEST(ProcessPoolStress, FlushDuringKillOverHundredInterleavings)
{
    REQUIRE_WORKER_BINARY();
    const std::string oracle = baselineCsv();
    const std::string cache_path =
        uniqueTempPath("check_flush_cache.csv");

    // Stream records into a flushing result cache while worker 0 is
    // killed mid-sweep: the cache on disk must stay loadable and a
    // warm re-run must simulate nothing and reproduce the oracle.
    StressRunner runner(
        "flush-during-kill", [&oracle, &cache_path](Schedule &s) {
            std::remove(cache_path.c_str());
            const ScopedEnv kill(
                "SPARCH_TEST_KILL_WORKER_AFTER",
                std::to_string(1 + s.pick(0, 2)));
            const unsigned procs =
                2 + static_cast<unsigned>(s.pick(1, 2));

            {
                BatchRunner batch(1);
                fillStressGrid(batch);
                exec::ProcessPoolExecutor executor =
                    procsExecutor(procs);
                ResultCache cache(cache_path);
                RunStats stats;
                const std::vector<BatchRecord> records =
                    batch.run(executor, &cache, &stats);
                SPARCH_ASSERT(stats.failed == 0, stats.failed,
                              " grid points failed");
                SPARCH_ASSERT(csvOf(records) == oracle,
                              "records diverge from the oracle");
                cache.save();
            }

            // Reload from disk: fully warm, byte-identical replay.
            BatchRunner batch(1);
            fillStressGrid(batch);
            exec::InlineExecutor serial;
            ResultCache reloaded(cache_path);
            RunStats warm;
            const std::vector<BatchRecord> records =
                batch.run(serial, &reloaded, &warm);
            SPARCH_ASSERT(warm.simulated == 0,
                          "warm re-run simulated ", warm.simulated,
                          " points; the flushed cache lost records");
            SPARCH_ASSERT(csvOf(records) == oracle,
                          "cache round-trip diverges from the oracle");
            std::remove(cache_path.c_str());
        });
    const StressSummary summary = runner.explore(0xf1a5, 100);
    EXPECT_EQ(summary.runs, 100u);
    EXPECT_EQ(summary.failures, 0u)
        << "first failing seed 0x" << std::hex
        << summary.firstFailingSeed << ": "
        << summary.firstFailureMessage;
}

// ------------------------------------------------ deep-check validators

TEST(Invariants, DeepChecksToggle)
{
    EXPECT_FALSE(check::deepChecksEnabled());
    check::setDeepChecks(true);
    EXPECT_TRUE(check::deepChecksEnabled());
    check::setDeepChecks(false);
    EXPECT_FALSE(check::deepChecksEnabled());
}

TEST(Invariants, ValidateCsrAcceptsWellFormedAndRejectsBroken)
{
    const CsrMatrix good = generateUniform(20, 20, 80, 31);
    EXPECT_NO_THROW(check::validateCsr(good, "good"));

    // Duplicate column index within a row: structurally invalid.
    EXPECT_THROW(check::validateCsr(
                     CsrMatrix(2, 4, {0, 2, 2}, {1, 1}, {1.0, 2.0}),
                     "dup"),
                 PanicError);
}

TEST(Invariants, ValidateProductAcceptsARealSimulation)
{
    const CsrMatrix a = generateUniform(40, 40, 260, 32);
    const SpArchSimulator sim{};
    const SpArchResult r = sim.multiply(a, a);
    EXPECT_NO_THROW(check::validateProduct(a, a, r, r.result.nnz(),
                                           "real-simulation"));
    EXPECT_NO_THROW(check::validateResultStats(r, "real-simulation"));
}

TEST(Invariants, ValidateProductCatchesTamperedResults)
{
    const CsrMatrix a = generateUniform(30, 30, 180, 33);
    const SpArchSimulator sim{};
    SpArchResult r = sim.multiply(a, a);

    // Recorded nnz no longer matching the product is caught first.
    EXPECT_THROW(check::validateProduct(a, a, r, r.result.nnz() + 1,
                                        "bad-nnz"),
                 PanicError);

    // A tampered statistic trips the self-consistency pass.
    SpArchResult broken = r;
    broken.flops += 1;
    EXPECT_THROW(check::validateResultStats(broken, "bad-flops"),
                 PanicError);

    // A tampered value trips the reference comparison.
    std::vector<Value> values = r.result.values();
    ASSERT_FALSE(values.empty());
    values[0] += 1.0;
    SpArchResult forged = r;
    forged.result = CsrMatrix(r.result.rows(), r.result.cols(),
                              r.result.rowPtr(), r.result.colIdx(),
                              std::move(values));
    EXPECT_THROW(check::validateProduct(a, a, forged,
                                        forged.result.nnz(),
                                        "bad-values"),
                 PanicError);
}

TEST(Invariants, DeepChecksValidateEverySimulatedTask)
{
    // With deep checks on, BatchRunner::simulateTask validates the
    // product in place; a healthy grid must sail through.
    check::setDeepChecks(true);
    BatchRunner batch(1);
    fillStressGrid(batch);
    exec::InlineExecutor serial;
    RunStats stats;
    const std::vector<BatchRecord> records =
        batch.run(serial, nullptr, &stats);
    check::setDeepChecks(false);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(records.size(), 6u);
}

// ---------------------------------------------------- TSan canary race

/**
 * Deliberate data race, armed only by SPARCH_INJECT_RACE=1 in the
 * environment: the CI thread-sanitizer job runs exactly this test
 * with the variable set and asserts the run FAILS — proving the TSan
 * gate can actually catch a race, not merely that it stayed silent.
 */
TEST(TsanCanary, InjectedRaceIsDetectedWhenArmed)
{
    if (std::getenv("SPARCH_INJECT_RACE") == nullptr)
        GTEST_SKIP() << "canary disarmed (set SPARCH_INJECT_RACE=1)";
    int racy = 0; // plain int, deliberately unsynchronized
    std::thread other([&racy] {
        for (int i = 0; i < 1000; ++i)
            racy = racy + 1;
    });
    for (int i = 0; i < 1000; ++i)
        racy = racy + 1;
    other.join();
    // Keep the race observable so the optimizer cannot delete it.
    EXPECT_GT(racy, 0);
}

} // namespace
} // namespace sparch
