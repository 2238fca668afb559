/**
 * @file
 * Executor conformance suite (see exec/executor.hh).
 *
 * The load-bearing property: the inline, thread-pool and
 * process-pool backends produce byte-identical sweep CSVs for the
 * same grid — same ids, same per-task seeds, same measurements, same
 * ordering. On top of that, the process backend's crash paths are
 * driven end to end with deterministic kill injection
 * (SPARCH_TEST_KILL_WORKER_AFTER): a killed worker's tasks are
 * requeued to survivors, and when no workers survive the failed
 * points are reported, with a cached re-run simulating only those.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include <gtest/gtest.h>

#include "cli/commands.hh"
#include "cli/spec.hh"
#include "common/logging.hh"
#include "driver/batch_runner.hh"
#include "driver/result_cache.hh"
#include "driver/workload.hh"
#include "exec/local_executors.hh"
#include "exec/process_pool_executor.hh"
#include "matrix/generators.hh"
#include "temp_path.hh"

#ifndef SPARCH_CLI_BINARY
#define SPARCH_CLI_BINARY ""
#endif

namespace sparch
{
namespace
{

using driver::BatchRecord;
using driver::BatchRunner;
using driver::ResultCache;
using driver::RunStats;
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

exec::ProcessPoolExecutor
procsExecutor(unsigned procs)
{
    exec::ProcessPoolOptions options;
    options.procs = procs;
    options.workerBinary = SPARCH_CLI_BINARY;
    return exec::ProcessPoolExecutor(options);
}

/**
 * A 16-point grid covering every CLI workload family, two configs
 * (one non-HBM) and the shard axis, cheap enough to simulate
 * repeatedly in a test.
 */
void
fillGrid(BatchRunner &runner)
{
    const std::vector<std::pair<std::string, SpArchConfig>> configs = {
        {"table-I", SpArchConfig{}},
        {"ideal-shallow",
         cli::parseConfigOverrides(
             "memory=ideal,merge_layers=4,multipliers=8")},
    };
    const std::vector<Workload> workloads = {
        driver::uniformWorkload(48, 48, 300, 11),
        driver::rmatWorkload(96, 4, 12),
        driver::dnnLayerWorkload(48, 24, 0.1, 13),
        driver::suiteWorkload("scircuit", 2500, 14),
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

// ------------------------------------------------ determinism contract

TEST(ExecConformance, AllBackendsEmitByteIdenticalCsv)
{
    REQUIRE_WORKER_BINARY();
    BatchRunner runner(3);
    fillGrid(runner);
    ASSERT_EQ(runner.size(), 16u);

    exec::InlineExecutor serial;
    exec::ThreadPoolExecutor pooled(3);
    exec::ProcessPoolExecutor procs = procsExecutor(3);

    RunStats s1, s2, s3;
    const std::string inline_csv =
        csvOf(runner.run(serial, nullptr, &s1));
    const std::string threads_csv =
        csvOf(runner.run(pooled, nullptr, &s2));
    const std::string procs_csv =
        csvOf(runner.run(procs, nullptr, &s3));

    EXPECT_EQ(inline_csv, threads_csv);
    EXPECT_EQ(inline_csv, procs_csv);
    for (const RunStats *s : {&s1, &s2, &s3}) {
        EXPECT_EQ(s->simulated, 16u);
        EXPECT_EQ(s->failed, 0u);
    }
}

TEST(ExecConformance, RecordsAreIdSortedWithStableSeeds)
{
    const std::uint64_t base = 0xfeedULL;
    BatchRunner runner(2, base);
    fillGrid(runner);

    exec::ThreadPoolExecutor pooled(4);
    RunStats stats;
    const std::vector<BatchRecord> records =
        runner.run(pooled, nullptr, &stats);
    ASSERT_EQ(records.size(), runner.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i].id, i);
        EXPECT_EQ(records[i].seed, BatchRunner::taskSeed(base, i));
    }

    // Re-running the same grid reproduces the same bytes; a different
    // base seed derives different per-task seeds.
    EXPECT_EQ(csvOf(records), csvOf(runner.run(pooled)));
    BatchRunner other(2, base + 1);
    fillGrid(other);
    EXPECT_NE(other.tasks()[0].seed, runner.tasks()[0].seed);
}

// ---------------------------------------------------- failure handling

TEST(ExecFailures, ThrowingTaskIsCountedNotFatal)
{
    for (const bool threaded : {false, true}) {
        BatchRunner runner(threaded ? 3 : 1);
        runner.add("cfg", SpArchConfig{},
                   driver::uniformWorkload(32, 32, 150, 21));
        runner.add("cfg", SpArchConfig{},
                   Workload("boom", []() -> CsrMatrix {
                       fatal("injected workload failure");
                   }));
        runner.add("cfg", SpArchConfig{},
                   driver::uniformWorkload(32, 32, 150, 22));

        RunStats stats;
        const std::vector<BatchRecord> records =
            runner.run(nullptr, &stats);
        ASSERT_EQ(records.size(), 2u);
        EXPECT_EQ(records[0].id, 0u);
        EXPECT_EQ(records[1].id, 2u);
        EXPECT_EQ(stats.simulated, 2u);
        EXPECT_EQ(stats.failed, 1u);
        ASSERT_EQ(stats.failures.size(), 1u);
        EXPECT_EQ(stats.failures[0].id, 1u);
        EXPECT_EQ(stats.failures[0].workloadName, "boom");
        EXPECT_NE(stats.failures[0].error.find(
                      "injected workload failure"),
                  std::string::npos);
    }
}

TEST(ExecFailures, ProcessBackendRejectsSpeclessWorkloads)
{
    BatchRunner runner(1);
    runner.add("cfg", SpArchConfig{},
               Workload("local-lambda", [] {
                   return generateUniform(16, 16, 40, 7);
               }));
    exec::ProcessPoolExecutor procs = procsExecutor(2);
    EXPECT_THROW(runner.run(procs), FatalError);
}

// -------------------------------------------- worker death end to end

TEST(ExecWorkerDeath, KilledWorkersTasksRequeueToSurvivors)
{
    REQUIRE_WORKER_BINARY();
    BatchRunner runner(2);
    fillGrid(runner);

    exec::InlineExecutor serial;
    const std::string expected = csvOf(runner.run(serial));

    // Worker 0 hard-exits after one record; the sweep must still
    // complete every point, bit for bit, on the surviving worker.
    ScopedEnv kill("SPARCH_TEST_KILL_WORKER_AFTER", "1");
    exec::ProcessPoolExecutor procs = procsExecutor(2);
    RunStats stats;
    const std::string survived =
        csvOf(runner.run(procs, nullptr, &stats));
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.simulated, runner.size());
    EXPECT_EQ(survived, expected);
}

TEST(ExecWorkerDeath, NoSurvivorsFailsPointsAndCacheResumes)
{
    REQUIRE_WORKER_BINARY();
    BatchRunner runner(2);
    fillGrid(runner);
    const std::size_t total = runner.size();

    exec::InlineExecutor serial;
    const std::string expected = csvOf(runner.run(serial));

    const std::string cache_path = uniqueTempPath("exec_resume_cache.csv");
    {
        // A single worker that dies after 2 records: no survivors to
        // requeue to, so the rest of the grid fails — visibly.
        ScopedEnv kill("SPARCH_TEST_KILL_WORKER_AFTER", "2");
        exec::ProcessPoolExecutor procs = procsExecutor(1);
        ResultCache cache(cache_path);
        RunStats stats;
        const std::vector<BatchRecord> records =
            runner.run(procs, &cache, &stats);
        cache.save();
        EXPECT_EQ(records.size(), 2u);
        EXPECT_EQ(stats.simulated, 2u);
        EXPECT_EQ(stats.failed, total - 2);
        ASSERT_EQ(stats.failures.size(), total - 2);
        std::set<std::size_t> failed_ids;
        for (const driver::FailedPoint &f : stats.failures)
            failed_ids.insert(f.id);
        EXPECT_EQ(failed_ids.size(), total - 2);
    }

    // The resumed sweep simulates only the failed points and ends
    // with the full grid's bytes.
    ResultCache cache(cache_path);
    RunStats stats;
    exec::ThreadPoolExecutor pooled(2);
    const std::string resumed =
        csvOf(runner.run(pooled, &cache, &stats));
    EXPECT_EQ(stats.cacheHits, 2u);
    EXPECT_EQ(stats.simulated, total - 2);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(resumed, expected);
    std::remove(cache_path.c_str());
}

// ------------------------------------------------- manifest round trip

TEST(WorkerManifest, RoundTripsTasksAndCacheKeys)
{
    BatchRunner runner(1, 0x1234);
    fillGrid(runner);

    std::vector<const driver::BatchTask *> tasks;
    for (const driver::BatchTask &task : runner.tasks())
        tasks.push_back(&task);

    std::stringstream manifest;
    cli::writeWorkerManifest(manifest, tasks);
    const std::vector<driver::BatchTask> parsed =
        cli::parseWorkerManifest(manifest, "test-manifest");

    ASSERT_EQ(parsed.size(), tasks.size());
    for (std::size_t i = 0; i < parsed.size(); ++i) {
        const driver::BatchTask &a = *tasks[i];
        const driver::BatchTask &b = parsed[i];
        EXPECT_EQ(a.id, b.id);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.shards, b.shards);
        EXPECT_EQ(a.shardPolicy, b.shardPolicy);
        EXPECT_EQ(a.workload.name(), b.workload.name());
        EXPECT_EQ(a.workload.identity(), b.workload.identity());
        // The strongest equivalence there is: the result-cache key
        // hashes every config field and the workload identity.
        EXPECT_EQ(ResultCache::taskKey(a), ResultCache::taskKey(b));
    }
}

TEST(WorkerManifest, RejectsGarbageAndDuplicateIds)
{
    {
        std::stringstream in("not a manifest\n");
        EXPECT_THROW(cli::parseWorkerManifest(in, "t"), FatalError);
    }
    {
        std::stringstream in(
            "sparch-worker-tasks v1\n[task]\nid = 0\n");
        EXPECT_THROW(cli::parseWorkerManifest(in, "t"), FatalError);
    }
    {
        std::stringstream in(
            "sparch-worker-tasks v1\n"
            "[task]\nid = 0\nseed = 1\nshards = 1\npolicy = nnz\n"
            "nnz = 100\nwseed = 1\nconfig =\n"
            "workload = uniform:8x8:16\n"
            "[task]\nid = 0\nseed = 2\nshards = 1\npolicy = nnz\n"
            "nnz = 100\nwseed = 1\nconfig =\n"
            "workload = uniform:8x8:16\n");
        EXPECT_THROW(cli::parseWorkerManifest(in, "t"), FatalError);
    }
}

// ------------------------------------------- worker command in-process

TEST(WorkerCommand, SimulatesRequestedIdsInResultCacheSchema)
{
    BatchRunner runner(1);
    fillGrid(runner);
    std::vector<const driver::BatchTask *> tasks;
    for (const driver::BatchTask &task : runner.tasks())
        tasks.push_back(&task);

    const std::string manifest_path =
        uniqueTempPath("worker_manifest.txt");
    {
        std::ofstream out(manifest_path);
        cli::writeWorkerManifest(out, tasks);
    }

    std::ostringstream out, err;
    const int rc = cli::run({"worker", "--tasks", manifest_path,
                             "--ids", "0,5"},
                            out, err);
    EXPECT_EQ(rc, 0);

    std::istringstream lines(out.str());
    std::string line;
    std::size_t n = 0;
    const std::size_t expect_ids[] = {0, 5};
    while (std::getline(lines, line)) {
        ASSERT_LT(n, 2u);
        const std::size_t comma = line.find(',');
        ASSERT_NE(comma, std::string::npos);
        const std::uint64_t key =
            std::strtoull(line.substr(0, comma).c_str(), nullptr, 16);
        EXPECT_EQ(key, ResultCache::taskKey(*tasks[expect_ids[n]]));
        BatchRecord record;
        ASSERT_TRUE(BatchRunner::parseCsvRow(line.substr(comma + 1),
                                             record));
        EXPECT_EQ(record.id, expect_ids[n]);
        EXPECT_EQ(record.seed, tasks[expect_ids[n]]->seed);
        ++n;
    }
    EXPECT_EQ(n, 2u);

    // Unknown ids answer with an err line instead of dying.
    std::ostringstream out2, err2;
    EXPECT_EQ(cli::run({"worker", "--tasks", manifest_path, "--ids",
                        "99"},
                       out2, err2),
              0);
    EXPECT_EQ(out2.str().rfind("err 99 ", 0), 0u) << out2.str();
    std::remove(manifest_path.c_str());
}

} // namespace
} // namespace sparch
