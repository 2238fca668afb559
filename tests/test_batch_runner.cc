/**
 * @file
 * Tests for the batch-simulation driver: the work-stealing thread
 * pool, the workload factories, and — the load-bearing property — that
 * a multi-threaded BatchRunner reproduces a serial run bit for bit.
 */

#include <atomic>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <gtest/gtest.h>

#include "check/invariants.hh"
#include "driver/batch_runner.hh"
#include "driver/thread_pool.hh"
#include "driver/workload.hh"
#include "exec/local_executors.hh"
#include "expect_measurements.hh"
#include "matrix/generators.hh"
#include "matrix/reference_spgemm.hh"

namespace sparch
{
namespace
{

using driver::BatchRecord;
using driver::BatchRunner;
using driver::ThreadPool;
using driver::Workload;

// ---------------------------------------------------------------- pool

TEST(ThreadPool, RunsEveryTaskExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> counter{0};
    std::vector<std::future<int>> futures;
    for (int i = 0; i < 64; ++i) {
        futures.push_back(pool.submit([i, &counter] {
            counter.fetch_add(1);
            return i * i;
        }));
    }
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(futures[i].get(), i * i);
    EXPECT_EQ(counter.load(), 64);
}

TEST(ThreadPool, WaitIdleDrainsQueue)
{
    ThreadPool pool(2);
    std::atomic<int> counter{0};
    for (int i = 0; i < 32; ++i)
        pool.submit([&counter] { counter.fetch_add(1); });
    pool.waitIdle();
    EXPECT_EQ(counter.load(), 32);
}

TEST(ThreadPool, ExceptionsTravelThroughFutures)
{
    ThreadPool pool(2);
    auto future = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(future.get(), std::runtime_error);
    // The pool survives a throwing task.
    EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, HardwareThreadsIsPositive)
{
    EXPECT_GE(ThreadPool::hardwareThreads(), 1u);
}

// ----------------------------------------------------------- workloads

TEST(Workload, MaterializesOnceAndCaches)
{
    int calls = 0;
    Workload w("counted", [&calls] {
        ++calls;
        return generateUniform(16, 16, 40, 1);
    });
    EXPECT_EQ(calls, 0); // lazy
    const CsrMatrix *first = &w.left();
    const CsrMatrix *again = &w.left();
    EXPECT_EQ(first, again);
    EXPECT_EQ(calls, 1);

    // Copies share the cache.
    Workload copy = w;
    EXPECT_EQ(&copy.left(), first);
    EXPECT_EQ(calls, 1);
}

TEST(Workload, RightDefaultsToLeft)
{
    Workload square("square",
                    [] { return generateUniform(8, 8, 20, 2); });
    EXPECT_TRUE(square.squared());
    EXPECT_EQ(&square.left(), &square.right());

    Workload rect(
        "rect", [] { return generateUniform(8, 8, 20, 3); },
        [] { return generateUniform(8, 4, 10, 4); });
    EXPECT_FALSE(rect.squared());
    EXPECT_NE(&rect.left(), &rect.right());
    EXPECT_EQ(rect.right().cols(), 4u);
}

TEST(Workload, DnnLayerShapesMatch)
{
    Workload layer = driver::dnnLayerWorkload(64, 16, 0.1, 9);
    EXPECT_EQ(layer.left().rows(), 64u);
    EXPECT_EQ(layer.left().cols(), 64u);
    EXPECT_EQ(layer.right().rows(), 64u);
    EXPECT_EQ(layer.right().cols(), 16u);
}

// -------------------------------------------------------- batch runner

/** A >= 16-point grid small enough for cycle simulation in a test. */
void
fillGrid(BatchRunner &runner)
{
    std::vector<std::pair<std::string, SpArchConfig>> configs;
    {
        SpArchConfig cfg; // the paper's design point
        configs.emplace_back("table-I", cfg);
    }
    {
        SpArchConfig cfg;
        // The functional minimum is 4 lines per merge way (= 256 for
        // the default 64-way tree); anything smaller is rejected.
        cfg.prefetchLines = 256;
        cfg.replacement = ReplacementPolicy::Lru;
        configs.emplace_back("small-lru", cfg);
    }
    {
        SpArchConfig cfg;
        cfg.scheduler = SchedulerKind::Sequential;
        cfg.matrixCondensing = false;
        configs.emplace_back("no-condense-seq", cfg);
    }
    {
        SpArchConfig cfg;
        cfg.mergeTree.mergerWidth = 4;
        cfg.lookaheadFifo = 512;
        configs.emplace_back("narrow", cfg);
    }

    const std::vector<Workload> workloads = {
        driver::uniformWorkload(48, 48, 300, 11),
        driver::rmatWorkload(96, 4, 12),
        driver::dnnLayerWorkload(48, 24, 0.1, 13),
        Workload("banded",
                 [] { return generateBanded(64, 6, 4.0, 14); }),
    };
    runner.addGrid(configs, workloads);
}

void
expectIdenticalRecords(const std::vector<BatchRecord> &serial,
                       const std::vector<BatchRecord> &parallel)
{
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        const BatchRecord &s = serial[i];
        const BatchRecord &p = parallel[i];
        EXPECT_EQ(s.id, p.id);
        EXPECT_EQ(s.configLabel, p.configLabel);
        EXPECT_EQ(s.workloadName, p.workloadName);
        EXPECT_EQ(s.seed, p.seed);
        EXPECT_EQ(s.shards, p.shards);
        EXPECT_EQ(s.sim.cycles, p.sim.cycles);
        EXPECT_EQ(s.sim.flops, p.sim.flops);
        EXPECT_EQ(s.sim.multiplies, p.sim.multiplies);
        EXPECT_EQ(s.sim.additions, p.sim.additions);
        EXPECT_EQ(s.sim.bytesMatA, p.sim.bytesMatA);
        EXPECT_EQ(s.sim.bytesMatB, p.sim.bytesMatB);
        EXPECT_EQ(s.sim.bytesPartialRead, p.sim.bytesPartialRead);
        EXPECT_EQ(s.sim.bytesPartialWrite, p.sim.bytesPartialWrite);
        EXPECT_EQ(s.sim.bytesFinalWrite, p.sim.bytesFinalWrite);
        EXPECT_EQ(s.sim.bytesTotal, p.sim.bytesTotal);
        EXPECT_EQ(s.sim.mergeRounds, p.sim.mergeRounds);
        EXPECT_EQ(s.resultNnz, p.resultNnz);
        // Bit-identical product matrices, not just equal measurements.
        EXPECT_TRUE(s.sim.result == p.sim.result);
    }
}

TEST(BatchRunner, ParallelRunMatchesSerialBitForBit)
{
    BatchRunner serial(1);
    BatchRunner parallel(4);
    fillGrid(serial);
    fillGrid(parallel);
    ASSERT_GE(serial.size(), 16u);
    ASSERT_EQ(serial.size(), parallel.size());
    serial.keepProducts(true);
    parallel.keepProducts(true);

    expectIdenticalRecords(serial.run(), parallel.run());
}

TEST(BatchRunner, ResultsMatchReferenceSpgemm)
{
    BatchRunner runner(4);
    const Workload w = driver::uniformWorkload(40, 40, 250, 21);
    SpArchConfig cfg;
    runner.add("table-I", cfg, w);
    runner.keepProducts(true);
    const std::vector<BatchRecord> records = runner.run();
    ASSERT_EQ(records.size(), 1u);
    const CsrMatrix expect = spgemmDenseAccumulator(w.left(), w.left());
    EXPECT_TRUE(records[0].sim.result.almostEqual(expect));
}

TEST(BatchRunner, SeededTasksAreDeterministic)
{
    // Two runners with the same base seed derive the same per-task
    // seeds — and therefore identical workloads seeded from them —
    // regardless of thread count.
    auto workload = [](std::uint64_t seed) {
        return Workload("seeded-" + std::to_string(seed),
                        [seed] {
                            return generateUniform(32, 32, 150, seed);
                        });
    };
    BatchRunner serial(1, 0xabcdef);
    BatchRunner parallel(4, 0xabcdef);
    for (std::size_t id = 0; id < 16; ++id) {
        const std::uint64_t seed = BatchRunner::taskSeed(0xabcdef, id);
        EXPECT_EQ(serial.add("table-I", SpArchConfig{}, workload(seed)),
                  id);
        parallel.add("table-I", SpArchConfig{}, workload(seed));
        EXPECT_EQ(serial.tasks()[id].seed, seed);
    }
    serial.keepProducts(true);
    parallel.keepProducts(true);

    // Per-task seeds are pairwise distinct and non-trivial.
    std::set<std::uint64_t> seeds;
    for (const auto &task : serial.tasks())
        seeds.insert(task.seed);
    EXPECT_EQ(seeds.size(), serial.size());

    expectIdenticalRecords(serial.run(), parallel.run());
}

TEST(BatchRunner, ShardAxisMatchesMonolithicProduct)
{
    // The same workload at shards = 1 and shards = 4: the sharded
    // record must reproduce the monolithic sparsity structure and
    // operation counts, and carry its shard count into the records.
    BatchRunner runner(2);
    const Workload w = driver::uniformWorkload(64, 64, 500, 91);
    runner.add("table-I", SpArchConfig{}, w);
    runner.add("table-I", SpArchConfig{}, w, 4);
    runner.keepProducts(true);
    const std::vector<BatchRecord> records = runner.run();
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].shards, 1u);
    EXPECT_EQ(records[1].shards, 4u);
    EXPECT_EQ(records[0].resultNnz, records[1].resultNnz);
    EXPECT_EQ(records[0].sim.flops, records[1].sim.flops);
    EXPECT_EQ(records[0].sim.result.rowPtr(),
              records[1].sim.result.rowPtr());
    EXPECT_EQ(records[0].sim.result.colIdx(),
              records[1].sim.result.colIdx());
    EXPECT_TRUE(
        records[1].sim.result.almostEqual(records[0].sim.result, 1e-12));
    EXPECT_EQ(records[1].sim.stats.get("shard.count"), 4.0);
}

// ------------------------------------------------ shard-thread budget

/** The sharded task of the budget tests: four row blocks of real work. */
Workload
budgetWorkload()
{
    return driver::rmatWorkload(256, 6, 77);
}

/** Everything a sharded record measures, compared exactly. */
void
expectSameShardedRecord(const BatchRecord &expect, const BatchRecord &got)
{
    EXPECT_EQ(expect.sim.cycles, got.sim.cycles);
    EXPECT_EQ(expect.sim.bytesMatA, got.sim.bytesMatA);
    EXPECT_EQ(expect.sim.bytesMatB, got.sim.bytesMatB);
    EXPECT_EQ(expect.sim.bytesPartialRead, got.sim.bytesPartialRead);
    EXPECT_EQ(expect.sim.bytesPartialWrite, got.sim.bytesPartialWrite);
    EXPECT_EQ(expect.sim.bytesFinalWrite, got.sim.bytesFinalWrite);
    EXPECT_EQ(expect.sim.bandwidthUtilization,
              got.sim.bandwidthUtilization);
    EXPECT_EQ(expect.sim.stats.all(), got.sim.stats.all());
    EXPECT_EQ(expect.resultNnz, got.resultNnz);
    EXPECT_TRUE(expect.sim.result == got.sim.result);
}

TEST(BatchRunner, ShardedResultsIgnoreTheShardThreadBudget)
{
    // A lone sharded task on a pool of threads runs its row blocks on
    // the spare workers; in a batch of three on four threads it runs
    // them serially. Neither may move a single measurement.
    const Workload w = budgetWorkload();
    driver::BatchTask reference_task;
    reference_task.config = SpArchConfig{};
    reference_task.workload = w;
    reference_task.shards = 4;
    const BatchRecord reference =
        BatchRunner::simulateTask(reference_task, true);
    ASSERT_EQ(reference.sim.stats.get("shard.count"), 4.0);

    for (unsigned threads : {1u, 2u, 4u}) {
        for (std::size_t tasks : {1u, 3u}) {
            for (bool pooled : {false, true}) {
                SCOPED_TRACE("threads=" + std::to_string(threads) +
                             " tasks=" + std::to_string(tasks) +
                             (pooled ? " threads-exec" : " inline"));
                BatchRunner runner(threads);
                runner.add("table-I", SpArchConfig{}, w, 4);
                for (std::size_t i = 1; i < tasks; ++i)
                    runner.add("table-I", SpArchConfig{},
                               driver::uniformWorkload(48, 48, 300,
                                                       100 + i),
                               2);
                runner.keepProducts(true);
                exec::InlineExecutor inline_exec;
                exec::ThreadPoolExecutor pool_exec(threads);
                exec::Executor &executor =
                    pooled ? static_cast<exec::Executor &>(pool_exec)
                           : inline_exec;
                const std::vector<BatchRecord> records =
                    runner.run(executor);
                ASSERT_EQ(records.size(), tasks);
                expectSameShardedRecord(reference, records[0]);
            }
        }
    }
}

TEST(BatchRunner, WorkerEntryPointRunsShardsSerially)
{
    // simulateTask's default (what `sparch worker` calls) multiplies
    // every shard on the calling thread; with a shard-thread budget
    // the blocks run on pool threads and the caller multiplies none.
    driver::BatchTask task;
    task.workload = budgetWorkload();
    task.shards = 4;
    task.workload.left();

    BatchRecord serial, pooled;
    std::size_t serial_multiplies = 0, pooled_multiplies = 0;
    std::thread([&] {
        serial = BatchRunner::simulateTask(task, true);
        serial_multiplies = multipliesOnThisThread();
    }).join();
    std::thread([&] {
        pooled = BatchRunner::simulateTask(task, true, 4);
        pooled_multiplies = multipliesOnThisThread();
    }).join();
    EXPECT_EQ(serial_multiplies, 4u);
    EXPECT_EQ(pooled_multiplies, 0u);
    expectSameShardedRecord(serial, pooled);
}

TEST(BatchRunner, CheckedRecordEqualsTheUncheckedOne)
{
    // --check builds what it validates (a sharded task only its shard
    // blocks, never the stacked product) and drops it; the record it
    // leaves is the count-only run's, field for field.
    for (unsigned shards : {1u, 4u}) {
        SCOPED_TRACE("shards=" + std::to_string(shards));
        driver::BatchTask task;
        task.configLabel = "table-I";
        task.workload = budgetWorkload();
        task.shards = shards;
        const BatchRecord plain = BatchRunner::simulateTask(task, false, 2);
        check::setDeepChecks(true);
        BatchRecord checked;
        EXPECT_NO_THROW(checked =
                            BatchRunner::simulateTask(task, false, 2));
        check::setDeepChecks(false);
        expectSameMeasurements(plain.sim, checked.sim);
        EXPECT_EQ(checked.sim.result.nnz(), 0u);
        std::ostringstream plain_row, checked_row;
        BatchRunner::writeCsvRow(plain, plain_row);
        BatchRunner::writeCsvRow(checked, checked_row);
        EXPECT_EQ(plain_row.str(), checked_row.str());

        // The count is the product's.
        const BatchRecord kept = BatchRunner::simulateTask(task, true);
        EXPECT_EQ(plain.resultNnz, kept.sim.result.nnz());
        expectSameMeasurements(plain.sim, kept.sim);
    }
}

TEST(BatchRunner, SpareThreadsGoToTheShardsOfASmallBatch)
{
    // Inline execution runs every task on the calling thread, so the
    // multiplies counted on that thread show where the shards ran: on
    // pool threads for a lone task with four threads to spare, and on
    // the caller once three tasks share the four threads (4 / 3
    // rounds to 1).
    const auto caller_multiplies = [](std::size_t tasks) {
        std::size_t multiplies = 0;
        std::thread([&] {
            BatchRunner runner(4);
            for (std::size_t i = 0; i < tasks; ++i)
                runner.add("table-I", SpArchConfig{}, budgetWorkload(),
                           4);
            exec::InlineExecutor serial;
            EXPECT_EQ(runner.run(serial).size(), tasks);
            multiplies = multipliesOnThisThread();
        }).join();
        return multiplies;
    };
    EXPECT_EQ(caller_multiplies(1), 0u);
    EXPECT_EQ(caller_multiplies(3), 12u);
}

TEST(BatchRunner, ShardSweepEnumeratesAllCounts)
{
    BatchRunner runner(1);
    runner.addShardSweep(
        {{"table-I", SpArchConfig{}}},
        {driver::uniformWorkload(32, 32, 150, 93)}, {1, 2, 8});
    ASSERT_EQ(runner.size(), 3u);
    EXPECT_EQ(runner.tasks()[0].shards, 1u);
    EXPECT_EQ(runner.tasks()[1].shards, 2u);
    EXPECT_EQ(runner.tasks()[2].shards, 8u);

    std::ostringstream csv;
    BatchRunner::writeCsv(runner.run(), csv);
    EXPECT_NE(csv.str().find(",8,"), std::string::npos);
}

TEST(BatchRunner, RerunIsIdempotent)
{
    BatchRunner runner(2);
    runner.add("table-I", SpArchConfig{},
               driver::uniformWorkload(32, 32, 160, 31));
    const std::vector<BatchRecord> first = runner.run();
    const std::vector<BatchRecord> second = runner.run();
    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    EXPECT_EQ(first[0].sim.cycles, second[0].sim.cycles);
    EXPECT_EQ(first[0].sim.bytesTotal, second[0].sim.bytesTotal);
}

TEST(BatchRunner, ProductsDroppedByDefault)
{
    BatchRunner runner(1);
    runner.add("table-I", SpArchConfig{},
               driver::uniformWorkload(32, 32, 160, 41));
    const std::vector<BatchRecord> records = runner.run();
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].sim.result.nnz(), 0u);
    EXPECT_GT(records[0].resultNnz, 0u); // summary survives the drop
}

TEST(BatchRunner, CsvHasHeaderAndOneLinePerRecord)
{
    BatchRunner runner(2);
    runner.add("table-I", SpArchConfig{},
               driver::uniformWorkload(24, 24, 100, 51));
    runner.add("table-I", SpArchConfig{},
               driver::rmatWorkload(64, 4, 52));
    const std::vector<BatchRecord> records = runner.run();

    std::ostringstream csv;
    BatchRunner::writeCsv(records, csv);
    const std::string text = csv.str();
    std::size_t lines = 0;
    for (char c : text)
        lines += c == '\n' ? 1 : 0;
    EXPECT_EQ(lines, 1 + records.size());
    EXPECT_NE(text.find("id,config,workload,seed,shards,cycles"),
              std::string::npos);
    EXPECT_NE(text.find("rmat-64-x4"), std::string::npos);
}

TEST(BatchRunner, CsvEscapesCommasAndQuotes)
{
    // Workload names can be raw file paths; commas and quotes must
    // not shift the columns (RFC 4180 quoting).
    BatchRunner runner(1);
    runner.add("cfg,\"v2\"", SpArchConfig{},
               Workload("/data/set,v2/m.mtx", [] {
                   return generateUniform(16, 16, 40, 71);
               }));
    const std::vector<BatchRecord> records = runner.run();

    std::ostringstream csv;
    BatchRunner::writeCsv(records, csv);
    const std::string text = csv.str();
    EXPECT_NE(text.find("\"cfg,\"\"v2\"\"\""), std::string::npos);
    EXPECT_NE(text.find("\"/data/set,v2/m.mtx\""), std::string::npos);
}

TEST(BatchRunner, TableHasOneRowPerRecord)
{
    BatchRunner runner(1);
    runner.add("table-I", SpArchConfig{},
               driver::uniformWorkload(24, 24, 100, 61));
    const std::vector<BatchRecord> records = runner.run();
    std::ostringstream out;
    BatchRunner::toTable(records, "test table").print(out);
    EXPECT_NE(out.str().find("test table"), std::string::npos);
    EXPECT_NE(out.str().find("uniform-24x24-100"), std::string::npos);
}

} // namespace
} // namespace sparch
