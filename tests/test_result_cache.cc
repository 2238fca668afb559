/**
 * @file
 * Persistent result-cache tests: key sensitivity, hit/miss accounting
 * through BatchRunner, CSV round-tripping (bit-identical output from
 * cached records), and corrupt-file degradation.
 */

#include <cstdio>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "driver/batch_runner.hh"
#include "driver/result_cache.hh"
#include "driver/workload.hh"
#include "temp_path.hh"

namespace sparch
{
namespace
{

using driver::BatchRecord;
using driver::BatchRunner;
using driver::ResultCache;
using driver::RunStats;
using driver::ShardPolicy;
using driver::Workload;

std::string
csvOf(const std::vector<BatchRecord> &records)
{
    std::ostringstream out;
    BatchRunner::writeCsv(records, out);
    return out.str();
}

std::string
fileContents(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** A small grid: 2 configs x 2 workloads. */
BatchRunner
makeGrid(unsigned threads = 2)
{
    BatchRunner runner(threads);
    SpArchConfig shallow;
    shallow.mergeTree.layers = 4;
    const std::vector<std::pair<std::string, SpArchConfig>> configs = {
        {"table-I", SpArchConfig{}}, {"shallow", shallow}};
    const std::vector<Workload> workloads = {
        driver::uniformWorkload(96, 96, 700, 3),
        driver::uniformWorkload(128, 128, 900, 4)};
    runner.addGrid(configs, workloads);
    return runner;
}

// ------------------------------------------------------------- keys

TEST(ResultCacheKey, IsDeterministic)
{
    const SpArchConfig config;
    EXPECT_EQ(ResultCache::key(config, "w", 1, 1,
                               ShardPolicy::NnzBalanced),
              ResultCache::key(config, "w", 1, 1,
                               ShardPolicy::NnzBalanced));
}

TEST(ResultCacheKey, DependsOnEveryComponent)
{
    const SpArchConfig config;
    const std::uint64_t base =
        ResultCache::key(config, "w", 1, 1, ShardPolicy::NnzBalanced);

    SpArchConfig deeper;
    deeper.mergeTree.layers = 7;
    EXPECT_NE(base, ResultCache::key(deeper, "w", 1, 1,
                                     ShardPolicy::NnzBalanced));

    SpArchConfig no_prefetch;
    no_prefetch.rowPrefetcher = false;
    EXPECT_NE(base, ResultCache::key(no_prefetch, "w", 1, 1,
                                     ShardPolicy::NnzBalanced));

    EXPECT_NE(base, ResultCache::key(config, "w2", 1, 1,
                                     ShardPolicy::NnzBalanced));
    EXPECT_NE(base, ResultCache::key(config, "w", 2, 1,
                                     ShardPolicy::NnzBalanced));
    EXPECT_NE(base, ResultCache::key(config, "w", 1, 2,
                                     ShardPolicy::NnzBalanced));
    EXPECT_NE(base, ResultCache::key(config, "w", 1, 1,
                                     ShardPolicy::RowBalanced));
}

TEST(ResultCacheKey, LegacyHbmKeysAreByteStable)
{
    // These exact values were produced by the pre-refactor cache (the
    // HBM-only SpArchConfig, before memory.kind existed). They must
    // never change for memory=hbm configurations, or every result
    // cache written by an older build silently misses.
    const SpArchConfig def{};
    EXPECT_EQ(ResultCache::key(def, "w1", 7, 1,
                               ShardPolicy::NnzBalanced),
              0xf85038a81fbd8a92ULL);
    EXPECT_EQ(ResultCache::key(def, "w1", 7, 4,
                               ShardPolicy::RowBalanced),
              0x2733ce329ec94cc9ULL);

    SpArchConfig hbm8 = def;
    hbm8.memory.hbm.channels = 8;
    hbm8.memory.hbm.accessLatency = 100;
    EXPECT_EQ(ResultCache::key(hbm8, "w2", 9, 1,
                               ShardPolicy::NnzBalanced),
              0x4a428ae6a23c91e1ULL);
}

TEST(ResultCacheKey, OnlyTheActiveMemoryBackendFeedsTheKey)
{
    const SpArchConfig base{};
    const std::uint64_t hbm_key =
        ResultCache::key(base, "w", 1, 1, ShardPolicy::NnzBalanced);

    // Inactive backend parameters cannot change the simulation, so
    // they must not change the key (this is also what keeps legacy
    // HBM keys stable).
    SpArchConfig tweaked_inactive = base;
    tweaked_inactive.memory.ddr4.channels = 8;
    tweaked_inactive.memory.lpddr4.rowHitLatency = 1;
    tweaked_inactive.memory.ideal.accessLatency = 99;
    EXPECT_EQ(hbm_key,
              ResultCache::key(tweaked_inactive, "w", 1, 1,
                               ShardPolicy::NnzBalanced));

    // Switching backends must change the key...
    SpArchConfig ddr4 = base;
    ddr4.memory.kind = mem::MemoryKind::Ddr4;
    const std::uint64_t ddr4_key =
        ResultCache::key(ddr4, "w", 1, 1, ShardPolicy::NnzBalanced);
    EXPECT_NE(hbm_key, ddr4_key);

    SpArchConfig ideal = base;
    ideal.memory.kind = mem::MemoryKind::Ideal;
    EXPECT_NE(hbm_key, ResultCache::key(ideal, "w", 1, 1,
                                        ShardPolicy::NnzBalanced));
    EXPECT_NE(ddr4_key, ResultCache::key(ideal, "w", 1, 1,
                                         ShardPolicy::NnzBalanced));

    // ...and so must the active backend's own parameters.
    SpArchConfig ddr4_wide = ddr4;
    ddr4_wide.memory.ddr4.channels = 8;
    EXPECT_NE(ddr4_key, ResultCache::key(ddr4_wide, "w", 1, 1,
                                         ShardPolicy::NnzBalanced));

    // The HBM block is inactive on a ddr4 run: leftover hbm_* keys
    // in a grid must not cause spurious cache misses.
    SpArchConfig ddr4_hbm_tweak = ddr4;
    ddr4_hbm_tweak.memory.hbm.channels = 4;
    ddr4_hbm_tweak.memory.hbm.accessLatency = 100;
    EXPECT_EQ(ddr4_key, ResultCache::key(ddr4_hbm_tweak, "w", 1, 1,
                                         ShardPolicy::NnzBalanced));
}

TEST(ResultCacheKey, WorkloadIdentityCoversGeneratorParams)
{
    // Same name, different nnz target: identity must differ or a
    // cached sweep at one scale would poison a sweep at another.
    const Workload a = driver::suiteWorkload("wiki-Vote", 60000);
    const Workload b = driver::suiteWorkload("wiki-Vote", 30000);
    EXPECT_EQ(a.name(), b.name());
    EXPECT_NE(a.identity(), b.identity());

    const Workload c = driver::uniformWorkload(10, 10, 20, 1);
    const Workload d = driver::uniformWorkload(10, 10, 20, 2);
    EXPECT_EQ(c.name(), d.name());
    EXPECT_NE(c.identity(), d.identity());
}

// ------------------------------------------------- runner integration

TEST(ResultCache, SecondRunHitsForEveryGridPoint)
{
    const BatchRunner runner = makeGrid();
    ResultCache cache;

    RunStats first;
    const auto records1 = runner.run(&cache, &first);
    EXPECT_EQ(first.simulated, 4u);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(cache.size(), 4u);

    RunStats second;
    const auto records2 = runner.run(&cache, &second);
    EXPECT_EQ(second.simulated, 0u);
    EXPECT_EQ(second.cacheHits, 4u);

    // Cached records must reproduce the CSV bit for bit.
    EXPECT_EQ(csvOf(records1), csvOf(records2));
}

TEST(ResultCache, DifferentGridMissesWarmCache)
{
    const BatchRunner runner = makeGrid();
    ResultCache cache;
    runner.run(&cache, nullptr);

    BatchRunner other(1);
    SpArchConfig tweaked;
    tweaked.multipliers = 8;
    other.add("tweaked", tweaked,
              driver::uniformWorkload(96, 96, 700, 3));
    RunStats stats;
    other.run(&cache, &stats);
    EXPECT_EQ(stats.simulated, 1u);
    EXPECT_EQ(stats.cacheHits, 0u);
}

TEST(ResultCache, KeepProductsBypassesCache)
{
    BatchRunner runner = makeGrid(1);
    ResultCache cache;
    runner.run(&cache, nullptr); // warm

    runner.keepProducts(true);
    RunStats stats;
    const auto records = runner.run(&cache, &stats);
    EXPECT_EQ(stats.simulated, 4u);
    EXPECT_EQ(stats.cacheHits, 0u);
    EXPECT_GT(records[0].sim.result.nnz(), 0u);
}

TEST(ResultCache, HitsRelabelToTheCurrentGrid)
{
    const BatchRunner runner = makeGrid();
    ResultCache cache;
    runner.run(&cache, nullptr);

    // The exact same physical grid under different display labels:
    // every point hits, and the hits restamp id and label.
    SpArchConfig shallow;
    shallow.mergeTree.layers = 4;
    BatchRunner same(3);
    const std::vector<std::pair<std::string, SpArchConfig>> configs = {
        {"renamed-a", SpArchConfig{}}, {"renamed-b", shallow}};
    const std::vector<Workload> workloads = {
        driver::uniformWorkload(96, 96, 700, 3),
        driver::uniformWorkload(128, 128, 900, 4)};
    same.addGrid(configs, workloads);
    RunStats stats;
    const auto records = same.run(&cache, &stats);
    EXPECT_EQ(stats.cacheHits, 4u);
    EXPECT_EQ(records[0].configLabel, "renamed-a");
    EXPECT_EQ(records[3].configLabel, "renamed-b");
    EXPECT_EQ(records[3].id, 3u);
}

// ------------------------------------------------------- persistence

TEST(ResultCache, RoundTripsThroughDisk)
{
    const std::string path = uniqueTempPath("sparch_cache_roundtrip.csv");
    const BatchRunner runner = makeGrid();

    std::string csv1;
    {
        ResultCache cache(path);
        EXPECT_EQ(cache.size(), 0u);
        RunStats stats;
        csv1 = csvOf(runner.run(&cache, &stats));
        EXPECT_EQ(stats.simulated, 4u);
        EXPECT_TRUE(cache.dirty());
        cache.save();
        EXPECT_FALSE(cache.dirty());
    }

    ResultCache reloaded(path);
    EXPECT_EQ(reloaded.size(), 4u);
    RunStats stats;
    const auto records = runner.run(&reloaded, &stats);
    EXPECT_EQ(stats.simulated, 0u);
    EXPECT_EQ(stats.cacheHits, 4u);
    EXPECT_EQ(csvOf(records), csv1);
    std::remove(path.c_str());
}

TEST(ResultCache, MissingFileIsEmptyCache)
{
    ResultCache cache(uniqueTempPath("sparch_cache_missing.csv"));
    EXPECT_EQ(cache.size(), 0u);
}

TEST(ResultCache, CorruptLinesAreSkippedNotFatal)
{
    const std::string path = uniqueTempPath("sparch_cache_corrupt.csv");
    // Build a valid one-entry cache, then append garbage.
    {
        BatchRunner runner(1);
        runner.add("c", SpArchConfig{},
                   driver::uniformWorkload(64, 64, 300, 9));
        ResultCache cache(path);
        runner.run(&cache, nullptr);
        cache.save();
    }
    {
        std::ofstream out(path, std::ios::app);
        out << "not,a,valid,line\n";
        out << "zzzz,0,c,w,0,1,bad\n";
    }

    ResultCache cache(path);
    EXPECT_EQ(cache.size(), 1u); // the valid entry survives

    BatchRunner runner(1);
    runner.add("c", SpArchConfig{},
               driver::uniformWorkload(64, 64, 300, 9));
    RunStats stats;
    runner.run(&cache, &stats);
    EXPECT_EQ(stats.cacheHits, 1u);
    std::remove(path.c_str());
}

TEST(ResultCache, UnrecognizedHeaderIgnoresFile)
{
    const std::string path = uniqueTempPath("sparch_cache_badheader.csv");
    {
        std::ofstream out(path);
        out << "some,other,schema\n1,2,3\n";
    }
    ResultCache cache(path);
    EXPECT_EQ(cache.size(), 0u);
    std::remove(path.c_str());
}

TEST(ResultCache, ClearDropsEntriesAndFile)
{
    const std::string path = uniqueTempPath("sparch_cache_clear.csv");
    {
        BatchRunner runner(1);
        runner.add("c", SpArchConfig{},
                   driver::uniformWorkload(64, 64, 300, 9));
        ResultCache cache(path);
        runner.run(&cache, nullptr);
        cache.save();
    }
    ResultCache cache(path);
    EXPECT_EQ(cache.size(), 1u);
    cache.clear();
    EXPECT_EQ(cache.size(), 0u);
    std::ifstream in(path);
    EXPECT_FALSE(static_cast<bool>(in));
}

TEST(ResultCache, SaveIsAtomicEnoughToReload)
{
    // Saving twice (second save clean) leaves one well-formed file.
    const std::string path = uniqueTempPath("sparch_cache_resave.csv");
    BatchRunner runner(1);
    runner.add("c", SpArchConfig{},
               driver::uniformWorkload(64, 64, 300, 9));
    ResultCache cache(path);
    runner.run(&cache, nullptr);
    cache.save();
    const std::string first = fileContents(path);
    cache.save(); // clean, must not touch the file
    EXPECT_EQ(fileContents(path), first);
    std::remove(path.c_str());
}

TEST(ResultCache, CsvRowRoundTripsQuotedNames)
{
    BatchRecord r;
    r.id = 7;
    r.configLabel = "with,comma";
    r.workloadName = "quote\"and,comma";
    r.seed = 99;
    r.shards = 2;
    r.sim.cycles = 123;
    r.sim.seconds = 1.23e-7;
    r.sim.gflops = 3.14159;
    r.resultNnz = 42;
    std::ostringstream out;
    BatchRunner::writeCsvRow(r, out);
    std::string line = out.str();
    ASSERT_FALSE(line.empty());
    line.pop_back(); // strip the newline

    BatchRecord back;
    ASSERT_TRUE(BatchRunner::parseCsvRow(line, back));
    EXPECT_EQ(back.id, 7u);
    EXPECT_EQ(back.configLabel, "with,comma");
    EXPECT_EQ(back.workloadName, "quote\"and,comma");
    EXPECT_EQ(back.seed, 99u);
    EXPECT_EQ(back.shards, 2u);
    EXPECT_EQ(back.sim.cycles, 123u);
    EXPECT_EQ(back.resultNnz, 42u);

    EXPECT_FALSE(BatchRunner::parseCsvRow("1,2,3", back));
    EXPECT_FALSE(BatchRunner::parseCsvRow("", back));
}

} // namespace
} // namespace sparch
