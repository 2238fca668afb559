/**
 * @file
 * sparch CLI tests, driven in-process through cli::run.
 *
 * The load-bearing checks: a CLI sweep of the Fig. 12 grid reproduces
 * bench_fig12_energy's batch CSV bit for bit, and an immediate re-run
 * of the same sweep against a warm cache simulates zero grid points.
 */

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>

#include <gtest/gtest.h>

#include "baselines/benchmarks.hh"
#include "cli/commands.hh"
#include "cli/flags.hh"
#include "cli/spec.hh"
#include "common/logging.hh"
#include "driver/batch_runner.hh"
#include "driver/workload.hh"
#include "temp_path.hh"

namespace sparch
{
namespace
{

using cli::FlagSet;
using driver::BatchRunner;

std::string
writeFile(const std::string &name, const std::string &contents)
{
    const std::string path = uniqueTempPath(name);
    std::ofstream out(path);
    out << contents;
    return path;
}

std::string
fileContents(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

int
runCli(const std::vector<std::string> &args, std::string *out_text = nullptr,
       std::string *err_text = nullptr)
{
    std::ostringstream out, err;
    const int rc = cli::run(args, out, err);
    if (out_text != nullptr)
        *out_text = out.str();
    if (err_text != nullptr)
        *err_text = err.str();
    return rc;
}

// ------------------------------------------------------------- flags

TEST(CliFlags, ParsesValuedBooleanAndPositional)
{
    const FlagSet flags({"--csv", "out.csv", "--table",
                         "--threads=4", "pos1", "pos2"},
                        {"csv", "threads"}, {"table"});
    EXPECT_EQ(flags.get("csv"), "out.csv");
    EXPECT_TRUE(flags.has("table"));
    EXPECT_EQ(flags.getUnsigned("threads", 0), 4u);
    ASSERT_EQ(flags.positional().size(), 2u);
    EXPECT_EQ(flags.positional()[0], "pos1");
    EXPECT_EQ(flags.getU64("absent", 7), 7u);
}

TEST(CliFlags, HexSeedsParse)
{
    const FlagSet flags({"--seed", "0x5eed5eed"}, {"seed"}, {});
    EXPECT_EQ(flags.getU64("seed", 0), 0x5eed5eedULL);
}

TEST(CliFlags, RejectsUnknownFlagAndMissingValue)
{
    EXPECT_THROW(FlagSet({"--bogus"}, {"csv"}, {}), FatalError);
    EXPECT_THROW(FlagSet({"--csv"}, {"csv"}, {}), FatalError);
    EXPECT_THROW(FlagSet({"--table=1"}, {}, {"table"}), FatalError);
    EXPECT_THROW(FlagSet({"--threads", "abc"}, {"threads"}, {})
                     .getU64("threads", 0),
                 FatalError);
}

TEST(CliFlags, RejectsNegativeNumbers)
{
    // strtoull would wrap "-1" to 2^64 - 1; a negative count must be
    // an error, not a multi-exabyte request.
    EXPECT_THROW(cli::parseU64("-1", "seed"), FatalError);
    EXPECT_THROW(cli::parseU64("+3", "seed"), FatalError);
    EXPECT_THROW(cli::parseU64(" 5", "seed"), FatalError);
    EXPECT_EQ(cli::parseU64("5", "seed"), 5u);
}

// ------------------------------------------------------ config specs

TEST(CliConfigSpec, AppliesOverrides)
{
    const SpArchConfig config = cli::parseConfigOverrides(
        "merge_layers=4, prefetch_lines=512, scheduler=sequential, "
        "condensing=off, replacement=lru, clock_ghz=2");
    EXPECT_EQ(config.mergeTree.layers, 4u);
    EXPECT_EQ(config.prefetchLines, 512u);
    EXPECT_EQ(config.scheduler, SchedulerKind::Sequential);
    EXPECT_FALSE(config.matrixCondensing);
    EXPECT_EQ(config.replacement, ReplacementPolicy::Lru);
    EXPECT_DOUBLE_EQ(config.clockHz, 2e9);
}

TEST(CliConfigSpec, RejectsUnknownKeyAndBadValue)
{
    SpArchConfig config;
    EXPECT_THROW(cli::applyConfigOption(config, "warp_drive", "1"),
                 FatalError);
    EXPECT_THROW(cli::applyConfigOption(config, "scheduler", "fast"),
                 FatalError);
    EXPECT_THROW(cli::parseConfigOverrides("merge_layers"),
                 FatalError);
}

TEST(CliConfigSpec, AppliesMemoryBackendOverrides)
{
    const SpArchConfig ddr4 = cli::parseConfigOverrides(
        "memory=ddr4, ddr4_channels=4, ddr4_bytes_per_cycle=8, "
        "ddr4_banks=32, ddr4_row_bytes=4096, ddr4_hit_latency=50, "
        "ddr4_miss_penalty=30, ddr4_interleave=128");
    EXPECT_EQ(ddr4.memory.kind, mem::MemoryKind::Ddr4);
    EXPECT_EQ(ddr4.memory.ddr4.channels, 4u);
    EXPECT_EQ(ddr4.memory.ddr4.bytesPerCyclePerChannel, 8u);
    EXPECT_EQ(ddr4.memory.ddr4.banksPerChannel, 32u);
    EXPECT_EQ(ddr4.memory.ddr4.rowBufferBytes, 4096u);
    EXPECT_EQ(ddr4.memory.ddr4.rowHitLatency, 50u);
    EXPECT_EQ(ddr4.memory.ddr4.rowMissPenalty, 30u);
    EXPECT_EQ(ddr4.memory.ddr4.interleaveBytes, 128u);

    const SpArchConfig lp = cli::parseConfigOverrides(
        "memory=lpddr4, lpddr4_channels=2, lpddr4_hit_latency=120");
    EXPECT_EQ(lp.memory.kind, mem::MemoryKind::Lpddr4);
    EXPECT_EQ(lp.memory.lpddr4.channels, 2u);
    EXPECT_EQ(lp.memory.lpddr4.rowHitLatency, 120u);
    // ddr4 block untouched by lpddr4_* keys.
    EXPECT_EQ(lp.memory.ddr4.channels, mem::ddr4Defaults().channels);

    const SpArchConfig ideal =
        cli::parseConfigOverrides("memory=ideal, ideal_latency=9");
    EXPECT_EQ(ideal.memory.kind, mem::MemoryKind::Ideal);
    EXPECT_EQ(ideal.memory.ideal.accessLatency, 9u);

    SpArchConfig config;
    EXPECT_THROW(cli::applyConfigOption(config, "memory", "sram"),
                 FatalError);
}

TEST(CliConfigSpec, KeyListIsGeneratedFromTheTable)
{
    // The unknown-key error and the parser share one table; the list
    // must carry both the legacy keys and the new memory keys.
    const std::string keys = cli::configKeyList();
    for (const char *expect :
         {"clock_ghz", "merge_layers", "replacement", "hbm_channels",
          "memory", "ddr4_channels", "ddr4_miss_penalty",
          "lpddr4_row_bytes", "ideal_latency", "prefetcher"}) {
        EXPECT_NE(keys.find(expect), std::string::npos)
            << "missing key " << expect;
    }

    // And the error message really is generated from it.
    try {
        SpArchConfig config;
        cli::applyConfigOption(config, "warp_drive", "1");
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("memory"),
                  std::string::npos);
        EXPECT_NE(std::string(e.what()).find("lpddr4_interleave"),
                  std::string::npos);
    }
}

// ---------------------------------------------------- workload specs

TEST(CliWorkloadSpec, ParsesEveryFamily)
{
    cli::WorkloadDefaults defaults;
    defaults.nnz = 2000;

    auto suite = cli::parseWorkloadSpec("suite:wiki-Vote", defaults);
    ASSERT_EQ(suite.size(), 1u);
    EXPECT_EQ(suite[0].name(), "wiki-Vote");

    auto all = cli::parseWorkloadSpec("suite:*", defaults);
    EXPECT_EQ(all.size(), benchmarkSuite().size());

    auto rmat = cli::parseWorkloadSpec("rmat:512x8", defaults);
    ASSERT_EQ(rmat.size(), 1u);
    EXPECT_EQ(rmat[0].name(), "rmat-512-x8");

    auto uniform =
        cli::parseWorkloadSpec("uniform:64x32:100", defaults);
    ASSERT_EQ(uniform.size(), 1u);
    EXPECT_EQ(uniform[0].left().rows(), 64u);
    EXPECT_EQ(uniform[0].left().cols(), 32u);

    auto dnn = cli::parseWorkloadSpec("dnn:64x16:0.1", defaults);
    ASSERT_EQ(dnn.size(), 1u);
    EXPECT_FALSE(dnn[0].squared());
}

TEST(CliWorkloadSpec, RejectsMalformedSpecs)
{
    const cli::WorkloadDefaults defaults;
    EXPECT_THROW(cli::parseWorkloadSpec("", defaults), FatalError);
    EXPECT_THROW(cli::parseWorkloadSpec("nonsense", defaults),
                 FatalError);
    EXPECT_THROW(cli::parseWorkloadSpec("warp:1x2", defaults),
                 FatalError);
    EXPECT_THROW(cli::parseWorkloadSpec("rmat:512", defaults),
                 FatalError);
    EXPECT_THROW(cli::parseWorkloadSpec("uniform:64x32", defaults),
                 FatalError);
    EXPECT_THROW(cli::parseWorkloadSpec("suite:not-a-matrix",
                                        defaults),
                 FatalError);
}

// -------------------------------------------------------- grid specs

TEST(CliGridSpec, ParsesSettingsConfigsAndWorkloads)
{
    std::istringstream in(
        "# a sweep\n"
        "nnz = 1234\n"
        "seed = 0x10\n"
        "wseed = 7\n"
        "threads = 3\n"
        "shards = 1 4\n"
        "policy = row\n"
        "\n"
        "[config table-I]\n"
        "[config shallow]\n"
        "merge_layers = 4   ; inline comment\n"
        "[workloads]\n"
        "uniform:64x64:200\n"
        "rmat:256x4\n");
    const cli::GridSpec grid = cli::parseGridSpec(in, "test");
    ASSERT_EQ(grid.configs.size(), 2u);
    EXPECT_EQ(grid.configs[0].first, "table-I");
    EXPECT_EQ(grid.configs[1].first, "shallow");
    EXPECT_EQ(grid.configs[1].second.mergeTree.layers, 4u);
    ASSERT_EQ(grid.workloads.size(), 2u);
    EXPECT_EQ(grid.defaults.nnz, 1234u);
    EXPECT_EQ(grid.defaults.seed, 7u);
    EXPECT_EQ(grid.seed, 0x10u);
    EXPECT_EQ(grid.threads, 3u);
    EXPECT_EQ(grid.shards, (std::vector<unsigned>{1, 4}));
    EXPECT_EQ(grid.policy, driver::ShardPolicy::RowBalanced);
}

TEST(CliGridSpec, DefaultsMatchTheBenches)
{
    std::istringstream in("[workloads]\nuniform:16x16:30\n");
    const cli::GridSpec grid = cli::parseGridSpec(in, "test");
    ASSERT_EQ(grid.configs.size(), 1u);
    EXPECT_EQ(grid.configs[0].first, "default");
    EXPECT_EQ(grid.seed, 0x5eed5eedULL);
    EXPECT_EQ(grid.defaults.nnz, 60000u);
    EXPECT_EQ(grid.defaults.seed, 42u);
    EXPECT_EQ(grid.shards, std::vector<unsigned>{1});
}

TEST(CliGridSpec, SeedsAxisReplicatesWorkloads)
{
    std::istringstream in(
        "wseed = 100\n"
        "seeds = 3\n"
        "[workloads]\n"
        "uniform:64x64:200\n"
        "rmat:256x4\n");
    const cli::GridSpec grid = cli::parseGridSpec(in, "test");
    EXPECT_EQ(grid.seeds, 3u);
    // Each spec materializes once per seed, spec-major.
    ASSERT_EQ(grid.workloads.size(), 6u);
    for (int i : {0, 1, 2})
        EXPECT_EQ(grid.workloads[i].name(), "uniform-64x64-200");
    for (int i : {3, 4, 5})
        EXPECT_EQ(grid.workloads[i].name(), "rmat-256-x4");
    // Replicates are distinct samples: same name, different identity
    // (the generator seed is part of it), so the result cache keeps
    // them apart and the CSV rows carry independent measurements.
    EXPECT_NE(grid.workloads[0].identity(),
              grid.workloads[1].identity());
    EXPECT_NE(grid.workloads[1].identity(),
              grid.workloads[2].identity());
    EXPECT_NE(grid.workloads[3].identity(),
              grid.workloads[4].identity());
}

TEST(CliGridSpec, SeedsAxisDoesNotReplicateMatrixMarketFiles)
{
    // A .mtx workload ignores generator seeds (the file is the
    // matrix); replicating it would fake N identical "samples".
    const std::string path = writeFile(
        "sparch_cli_seeds.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 1.0\n2 2 2.0\n");
    std::istringstream in("seeds = 3\n[workloads]\nuniform:32x32:64\n"
                          "mtx:" +
                          path + "\n");
    const cli::GridSpec grid = cli::parseGridSpec(in, "test");
    std::remove(path.c_str());
    // 3 uniform replicates + 1 mtx instance.
    ASSERT_EQ(grid.workloads.size(), 4u);
    // File workloads are named by their file stem, so .mtx and .scsr
    // inputs of the same matrix sweep under one name from any
    // directory.
    const std::filesystem::path stem = uniqueTempPath("sparch_cli_seeds");
    EXPECT_EQ(grid.workloads[3].name(), stem.filename().string());
}

TEST(CliGridSpec, MemoryBackendsAsConfigAxes)
{
    std::istringstream in(
        "[config hbm]\n"
        "[config ddr4]\n"
        "memory = ddr4\n"
        "[config ideal]\n"
        "memory = ideal\n"
        "[workloads]\n"
        "uniform:64x64:200\n");
    const cli::GridSpec grid = cli::parseGridSpec(in, "test");
    ASSERT_EQ(grid.configs.size(), 3u);
    EXPECT_EQ(grid.configs[0].second.memory.kind,
              mem::MemoryKind::Hbm);
    EXPECT_EQ(grid.configs[1].second.memory.kind,
              mem::MemoryKind::Ddr4);
    EXPECT_EQ(grid.configs[2].second.memory.kind,
              mem::MemoryKind::Ideal);
}

TEST(CliGridSpec, RejectsMalformedInput)
{
    auto parse = [](const std::string &text) {
        std::istringstream in(text);
        return cli::parseGridSpec(in, "test");
    };
    EXPECT_THROW(parse("[workloads]\n"), FatalError); // no workloads
    EXPECT_THROW(parse("nnz = 1\n"), FatalError);     // no workloads
    EXPECT_THROW(parse("[bogus]\n[workloads]\nuniform:4x4:4\n"),
                 FatalError);
    EXPECT_THROW(parse("warp = 9\n[workloads]\nuniform:4x4:4\n"),
                 FatalError);
    EXPECT_THROW(parse("shards = 0\n[workloads]\nuniform:4x4:4\n"),
                 FatalError);
    EXPECT_THROW(parse("seeds = 0\n[workloads]\nuniform:4x4:4\n"),
                 FatalError);
    EXPECT_THROW(parse("[config c\n[workloads]\nuniform:4x4:4\n"),
                 FatalError);
}

TEST(CliWorkloadSpec, BadMatrixMarketFileFailsAtParseTime)
{
    // The spec parser runs the eager validators: a bad .mtx path (or
    // a file the reader would reject) fails before any grid point
    // simulates.
    const cli::WorkloadDefaults defaults;
    EXPECT_THROW(cli::parseWorkloadSpec("mtx:/nonexistent.mtx",
                                        defaults),
                 FatalError);

    const std::string path = writeFile(
        "sparch_cli_array.mtx",
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
    EXPECT_THROW(cli::parseWorkloadSpec("mtx:" + path, defaults),
                 FatalError);
    std::remove(path.c_str());
}

TEST(CliErrors, DoNotStackFatalPrefixes)
{
    const std::string path = writeFile(
        "sparch_bad_option.grid",
        "[config c]\nmerge_layers = banana\n[workloads]\n"
        "uniform:4x4:4\n");
    std::string err;
    EXPECT_EQ(runCli({"sweep", "--grid", path}, nullptr, &err), 1);
    EXPECT_NE(err.find("fatal:"), std::string::npos);
    EXPECT_EQ(err.find("fatal: fatal:"), std::string::npos) << err;
    std::remove(path.c_str());
}

// ----------------------------------------------------------- commands

TEST(Cli, HelpAndUnknownCommand)
{
    std::string out;
    EXPECT_EQ(runCli({"help"}, &out), 0);
    EXPECT_NE(out.find("usage: sparch"), std::string::npos);

    std::string err;
    EXPECT_EQ(runCli({"frobnicate"}, nullptr, &err), 1);
    EXPECT_NE(err.find("unknown command"), std::string::npos);

    EXPECT_EQ(runCli({}, &out), 1); // bare invocation: usage, error rc
}

TEST(Cli, WorkloadsListsTheSuite)
{
    std::string out;
    EXPECT_EQ(runCli({"workloads"}, &out), 0);
    for (const BenchmarkSpec &s : benchmarkSuite())
        EXPECT_NE(out.find("suite:" + s.name), std::string::npos)
            << s.name;
}

TEST(Cli, RunSimulatesAdHocWorkloads)
{
    std::string out, err;
    EXPECT_EQ(runCli({"run", "--threads", "2", "--nnz", "1500",
                      "uniform:96x96:600", "suite:wiki-Vote"},
                     &out, &err),
              0);
    EXPECT_NE(out.find("uniform-96x96-600"), std::string::npos);
    EXPECT_NE(out.find("wiki-Vote"), std::string::npos);
    EXPECT_NE(err.find("simulated=2"), std::string::npos);
}

TEST(Cli, RunErrorsAreReportedNotThrown)
{
    std::string err;
    EXPECT_EQ(runCli({"run"}, nullptr, &err), 1);
    EXPECT_NE(err.find("no workload specs"), std::string::npos);

    EXPECT_EQ(runCli({"run", "--config", "warp=1",
                      "uniform:8x8:8"},
                     nullptr, &err),
              1);
    EXPECT_EQ(runCli({"sweep"}, nullptr, &err), 1);
    EXPECT_EQ(runCli({"sweep", "--grid", "/nonexistent.grid"},
                     nullptr, &err),
              1);
}

/**
 * The acceptance bar: `sparch sweep` over the Fig. 12 grid writes the
 * exact bytes BatchRunner::writeCsv produces for the grid
 * bench_fig12_energy builds (same workloads, same order, same config
 * label, same default base seed), and a re-run of the sweep hits the
 * cache for 100% of grid points.
 */
TEST(Cli, Fig12SweepIsBitIdenticalAndCaches)
{
    constexpr std::uint64_t kNnz = 1500; // keep the 20 sims quick

    // The grid exactly as bench_fig12_energy builds it.
    BatchRunner bench_runner(2);
    for (const BenchmarkSpec &spec : benchmarkSuite()) {
        bench_runner.add("table-I", SpArchConfig{},
                         driver::suiteWorkload(spec.name, kNnz));
    }
    std::ostringstream bench_csv;
    BatchRunner::writeCsv(bench_runner.run(), bench_csv);

    const std::string grid_path = writeFile(
        "sparch_fig12.grid",
        "nnz = " + std::to_string(kNnz) +
            "\n[config table-I]\n[workloads]\nsuite:*\n");
    const std::string csv_path = uniqueTempPath("sparch_fig12_cli.csv");
    const std::string cache_path =
        uniqueTempPath("sparch_fig12_cache.csv");

    std::string err;
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--csv", csv_path,
                      "--cache", cache_path, "--threads", "2"},
                     nullptr, &err),
              0);
    EXPECT_NE(err.find("simulated=20"), std::string::npos) << err;
    EXPECT_EQ(fileContents(csv_path), bench_csv.str());

    // Second run of the same sweep: zero new simulations, same bytes.
    const std::string csv2_path = uniqueTempPath("sparch_fig12_cli2.csv");
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--csv", csv2_path,
                      "--cache", cache_path, "--threads", "2"},
                     nullptr, &err),
              0);
    EXPECT_NE(err.find("simulated=0"), std::string::npos) << err;
    EXPECT_NE(err.find("cache-hits=20"), std::string::npos) << err;
    EXPECT_EQ(fileContents(csv2_path), bench_csv.str());

    std::remove(grid_path.c_str());
    std::remove(csv_path.c_str());
    std::remove(csv2_path.c_str());
    std::remove(cache_path.c_str());
}

TEST(Cli, CacheStatsAndClear)
{
    const std::string cache_path = uniqueTempPath("sparch_cli_cache.csv");
    std::string out, err;

    // Populate through `run`.
    ASSERT_EQ(runCli({"run", "--threads", "1", "--cache", cache_path,
                      "uniform:64x64:300"},
                     &out, &err),
              0);
    EXPECT_NE(err.find("simulated=1"), std::string::npos);

    EXPECT_EQ(runCli({"cache", "stats", "--cache", cache_path}, &out),
              0);
    EXPECT_NE(out.find("1 entries"), std::string::npos);

    // A second `run` of the same point is a pure cache hit.
    ASSERT_EQ(runCli({"run", "--threads", "1", "--cache", cache_path,
                      "uniform:64x64:300"},
                     &out, &err),
              0);
    EXPECT_NE(err.find("simulated=0"), std::string::npos);
    EXPECT_NE(err.find("cache-hits=1"), std::string::npos);

    EXPECT_EQ(runCli({"cache", "clear", "--cache", cache_path}, &out),
              0);
    EXPECT_EQ(runCli({"cache", "stats", "--cache", cache_path}, &out),
              0);
    EXPECT_NE(out.find("0 entries"), std::string::npos);

    EXPECT_EQ(runCli({"cache", "frob", "--cache", cache_path}, &out,
                     &err),
              1);
    EXPECT_EQ(runCli({"cache", "stats"}, &out, &err), 1);
    std::remove(cache_path.c_str());
}

TEST(Cli, SweepShardAxisMatchesAddShardSweep)
{
    const std::string grid_path = writeFile(
        "sparch_shards.grid",
        "shards = 1 2\n[workloads]\nuniform:128x128:900\n");
    const std::string csv_path = uniqueTempPath("sparch_shards.csv");
    std::string err;
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--csv", csv_path,
                      "--threads", "2"},
                     nullptr, &err),
              0);
    const std::string csv = fileContents(csv_path);
    EXPECT_NE(err.find("simulated=2"), std::string::npos);
    // One monolithic and one 2-shard record of the same workload.
    EXPECT_NE(csv.find(",uniform-128x128-900,"), std::string::npos);
    std::remove(grid_path.c_str());
    std::remove(csv_path.c_str());
}

/**
 * `run` is a one-config sweep: its flags build the grid a grid file
 * would spell out, and both go through one pipeline — same CSV bytes,
 * same cache keys.
 */
TEST(Cli, RunIsAOneConfigSweep)
{
    const std::string run_csv = uniqueTempPath("sparch_run.csv");
    const std::string sweep_csv = uniqueTempPath("sparch_run_sweep.csv");
    const std::string cache_path = uniqueTempPath("sparch_run_cache.csv");
    const std::string grid_path = writeFile(
        "sparch_run.grid",
        "nnz = 1500\nshards = 2\n[config merge_layers=5]\n"
        "merge_layers = 5\n[workloads]\nsuite:wiki-Vote\n"
        "uniform:96x96:600\n");

    std::string err;
    ASSERT_EQ(runCli({"run", "--config", "merge_layers=5", "--shards",
                      "2", "--nnz", "1500", "--csv", run_csv,
                      "--cache", cache_path, "suite:wiki-Vote",
                      "uniform:96x96:600"},
                     nullptr, &err),
              0);
    EXPECT_NE(err.find("simulated=2, cache-hits=0, "), std::string::npos)
        << err;
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--csv", sweep_csv,
                      "--cache", cache_path},
                     nullptr, &err),
              0);
    EXPECT_NE(err.find("simulated=0, cache-hits=2, "), std::string::npos)
        << err;
    EXPECT_FALSE(fileContents(run_csv).empty());
    EXPECT_EQ(fileContents(run_csv), fileContents(sweep_csv));
    std::remove(run_csv.c_str());
    std::remove(sweep_csv.c_str());
    std::remove(cache_path.c_str());
    std::remove(grid_path.c_str());
}

TEST(Cli, FileWorkloadsSharingAStemAreRejected)
{
    const std::filesystem::path dir_a = uniqueTempPath("a");
    const std::filesystem::path dir_b = uniqueTempPath("b");
    const std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 1.0\n2 2 2.0\n";
    for (const std::filesystem::path &dir : {dir_a, dir_b}) {
        std::filesystem::create_directories(dir);
        std::ofstream(dir / "m.mtx") << text;
    }
    const std::string a = (dir_a / "m.mtx").string();
    const std::string b = (dir_b / "m.mtx").string();
    const std::string grid_path = writeFile(
        "sparch_stems.grid", "[workloads]\n" + a + "\n" + b + "\n");

    std::string err;
    EXPECT_EQ(runCli({"sweep", "--grid", grid_path}, nullptr, &err), 1);
    EXPECT_NE(err.find("'" + a + "' and '" + b + "'"), std::string::npos)
        << err;
    EXPECT_EQ(runCli({"run", a, b}, nullptr, &err), 1);
    EXPECT_NE(err.find("share the name 'm'"), std::string::npos) << err;

    // The same file twice is one matrix under one name, not a clash.
    EXPECT_EQ(runCli({"run", "--threads", "1", a, a}, nullptr, &err), 0)
        << err;
    std::filesystem::remove_all(dir_a);
    std::filesystem::remove_all(dir_b);
    std::remove(grid_path.c_str());
}

// ------------------------------------------- surrogate-first sweep

/** Split a CSV file into its data lines (header dropped). */
std::vector<std::string>
csvDataLines(const std::string &path)
{
    std::istringstream in(fileContents(path));
    std::vector<std::string> lines;
    std::string line;
    bool first = true;
    while (std::getline(in, line)) {
        if (first)
            first = false;
        else if (!line.empty())
            lines.push_back(line);
    }
    return lines;
}

/** The shared grid of the surrogate CLI tests: 3 x 2 x 2 points. */
std::string
surrogateGrid(const std::string &name, std::uint64_t base_seed)
{
    return writeFile(
        name, "shards = 1 2\nseed = " + std::to_string(base_seed) +
                  "\n[config table-I]\n[config wide]\nmerger_width = "
                  "32\n[config small-buf]\nprefetch_lines = 512\n"
                  "[workloads]\nuniform:96x96:600\n"
                  "uniform:128x128:900\n");
}

TEST(Cli, SurrogateSweepSurvivorsAreByteIdenticalToPlainSweep)
{
    const std::string grid_path =
        surrogateGrid("sparch_surrogate.grid", 0x5eed5eedULL);
    const std::string plain_csv = uniqueTempPath("sparch_sur_plain.csv");
    const std::string tiered_csv = uniqueTempPath("sparch_sur_tiered.csv");

    std::string err;
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--csv",
                      plain_csv, "--threads", "2"},
                     nullptr, &err),
              0);
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--csv",
                      tiered_csv, "--threads", "2", "--surrogate"},
                     nullptr, &err),
              0);
    EXPECT_NE(err.find("surrogate tier: 12 points evaluated"),
              std::string::npos)
        << err;
    EXPECT_NE(err.find("surrogate calibration"), std::string::npos);

    // Index the plain sweep's rows by grid id.
    std::map<std::string, std::string> plain_by_id;
    for (const std::string &line : csvDataLines(plain_csv))
        plain_by_id[line.substr(0, line.find(','))] = line;
    ASSERT_EQ(plain_by_id.size(), 12u);

    // The tiered CSV carries the full surrogate grid plus the
    // simulated survivors; every line parses under the record
    // schema, and every sim row is byte-identical to the plain
    // sweep's row of the same grid id.
    std::size_t surrogate_rows = 0;
    std::size_t sim_rows = 0;
    for (const std::string &line : csvDataLines(tiered_csv)) {
        driver::BatchRecord record;
        ASSERT_TRUE(BatchRunner::parseCsvRow(line, record)) << line;
        if (record.tier == "surrogate") {
            ++surrogate_rows;
        } else {
            ASSERT_EQ(record.tier, "sim");
            ++sim_rows;
            const auto it =
                plain_by_id.find(std::to_string(record.id));
            ASSERT_NE(it, plain_by_id.end());
            EXPECT_EQ(line, it->second);
        }
    }
    EXPECT_EQ(surrogate_rows, 12u); // every grid point is scored
    EXPECT_GE(sim_rows, 1u);
    EXPECT_LT(sim_rows, 12u); // and only survivors simulate

    std::remove(grid_path.c_str());
    std::remove(plain_csv.c_str());
    std::remove(tiered_csv.c_str());
}

TEST(Cli, SurrogateRankingIsDeterministicAndSeedIndependent)
{
    // Same spec, different batch base seeds: the surrogate scores
    // depend only on (config, workload stats), so the surviving grid
    // ids must match exactly; and a re-run of the same spec must
    // reproduce the tiered CSV byte for byte.
    const auto survivor_ids = [](const std::string &csv_path) {
        std::vector<std::string> ids;
        for (const std::string &line : csvDataLines(csv_path)) {
            driver::BatchRecord record;
            if (BatchRunner::parseCsvRow(line, record) &&
                record.tier == "sim")
                ids.push_back(std::to_string(record.id));
        }
        return ids;
    };

    const std::string grid_a =
        surrogateGrid("sparch_sur_seed_a.grid", 1);
    const std::string grid_b =
        surrogateGrid("sparch_sur_seed_b.grid", 0xabcdef);
    const std::string csv_a = uniqueTempPath("sparch_sur_a.csv");
    const std::string csv_a2 = uniqueTempPath("sparch_sur_a2.csv");
    const std::string csv_b = uniqueTempPath("sparch_sur_b.csv");
    ASSERT_EQ(runCli({"sweep", "--grid", grid_a, "--csv", csv_a,
                      "--threads", "2", "--surrogate"}),
              0);
    ASSERT_EQ(runCli({"sweep", "--grid", grid_a, "--csv", csv_a2,
                      "--threads", "1", "--surrogate"}),
              0);
    ASSERT_EQ(runCli({"sweep", "--grid", grid_b, "--csv", csv_b,
                      "--threads", "2", "--surrogate"}),
              0);
    // Identical spec: identical bytes, even across thread counts.
    EXPECT_EQ(fileContents(csv_a), fileContents(csv_a2));
    // Different base seed: different record seeds, same survivors.
    EXPECT_EQ(survivor_ids(csv_a), survivor_ids(csv_b));
    EXPECT_NE(fileContents(csv_a), fileContents(csv_b));

    std::remove(grid_a.c_str());
    std::remove(grid_b.c_str());
    std::remove(csv_a.c_str());
    std::remove(csv_a2.c_str());
    std::remove(csv_b.c_str());
}

TEST(Cli, SurrogateKeepZeroSimulatesTheWholeFrontier)
{
    const std::string grid_path =
        surrogateGrid("sparch_sur_keep.grid", 0x5eed5eedULL);
    const std::string csv_path = uniqueTempPath("sparch_sur_keep.csv");
    std::string err;
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--csv",
                      csv_path, "--threads", "2", "--surrogate",
                      "--surrogate-keep", "0"},
                     nullptr, &err),
              0);
    // frontier=N and survivors=N agree when the cap is lifted.
    const std::size_t frontier_pos = err.find("frontier=");
    ASSERT_NE(frontier_pos, std::string::npos) << err;
    const std::size_t comma = err.find(',', frontier_pos);
    const std::string frontier =
        err.substr(frontier_pos + 9, comma - frontier_pos - 9);
    EXPECT_NE(err.find("survivors=" + frontier), std::string::npos)
        << err;

    // The surrogate knobs require --surrogate itself.
    EXPECT_EQ(runCli({"sweep", "--grid", grid_path,
                      "--surrogate-keep", "3"},
                     nullptr, &err),
              1);
    EXPECT_NE(err.find("--surrogate"), std::string::npos);

    std::remove(grid_path.c_str());
    std::remove(csv_path.c_str());
}

// --------------------------------------- bidirectional spec round trip

TEST(CliConfigSpec, WriteConfigOverridesRoundTrips)
{
    // Nothing differs from the base -> nothing to say.
    EXPECT_EQ(cli::writeConfigOverrides(SpArchConfig{}), "");

    // A config touching every value category: doubles, bools, enums,
    // plain integers, and a non-default memory backend.
    const std::string overrides =
        "clock_ghz=1.5,merge_layers=4,combine_duplicates=false,"
        "multipliers=8,replacement=lru,scheduler=sequential,"
        "condensing=off,prefetcher=off,memory=ddr4,ddr4_channels=4,"
        "ddr4_miss_penalty=30,writer_burst=128";
    const SpArchConfig config = cli::parseConfigOverrides(overrides);

    const std::string written = cli::writeConfigOverrides(config);
    const SpArchConfig reparsed = cli::parseConfigOverrides(written);

    // Field-for-field equality, via the same table the parser uses.
    std::istringstream keys(cli::configKeyList());
    std::string key;
    while (keys >> key) {
        EXPECT_EQ(cli::renderConfigValue(config, key),
                  cli::renderConfigValue(reparsed, key))
            << "key '" << key << "' did not round-trip";
    }
    // And the serialized form is canonical: writing again changes
    // nothing.
    EXPECT_EQ(written, cli::writeConfigOverrides(reparsed));
    // Values the parser canonicalized survive verbatim.
    EXPECT_NE(written.find("replacement=lru"), std::string::npos);
    EXPECT_NE(written.find("memory=ddr4"), std::string::npos);
    EXPECT_NE(written.find("condensing=false"), std::string::npos);
}

TEST(CliWorkloadSpec, FactorySpecsRoundTripEveryFamily)
{
    const std::string mtx = writeFile(
        "sparch_roundtrip.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 1.0\n2 2 2.0\n");
    const std::vector<driver::Workload> originals = {
        driver::suiteWorkload("scircuit", 2500, 7),
        driver::rmatWorkload(512, 8, 9),
        driver::uniformWorkload(64, 32, 100, 11),
        driver::dnnLayerWorkload(64, 16, 0.1, 13),
        driver::matrixMarketWorkload(mtx),
    };
    for (const driver::Workload &w : originals) {
        ASSERT_TRUE(w.hasSpec()) << w.name();
        const driver::WorkloadSpec &spec = w.spec();
        cli::WorkloadDefaults defaults;
        defaults.nnz = spec.nnz;
        defaults.seed = spec.seed;
        const std::vector<driver::Workload> rebuilt =
            cli::parseWorkloadSpec(spec.text, defaults);
        ASSERT_EQ(rebuilt.size(), 1u) << spec.text;
        EXPECT_EQ(rebuilt[0].name(), w.name());
        // Identity equality is what makes the round trip safe: the
        // result cache keys on it, so a rebuilt workload can never
        // alias a different simulation.
        EXPECT_EQ(rebuilt[0].identity(), w.identity());
    }
    std::remove(mtx.c_str());
}

// ------------------------------------------------------ nnz_scale axis

TEST(CliGridSpec, NnzScaleAxisScalesSuiteWorkloads)
{
    std::istringstream in(
        "nnz = 1000\n"
        "nnz_scale = 0.5, 2\n"
        "[workloads]\n"
        "suite:scircuit\n"
        "uniform:32x32:100\n");
    const cli::GridSpec grid = cli::parseGridSpec(in, "test");
    ASSERT_EQ(grid.nnzScales, (std::vector<double>{0.5, 2.0}));
    // suite: materializes once per factor (renamed so sweep rows are
    // tellable apart); uniform carries its own size and stays single.
    ASSERT_EQ(grid.workloads.size(), 3u);
    EXPECT_EQ(grid.workloads[0].name(), "scircuit@nnz500");
    EXPECT_EQ(grid.workloads[1].name(), "scircuit@nnz2000");
    EXPECT_EQ(grid.workloads[2].name(), "uniform-32x32-100");
    // Different scales really are different matrices.
    EXPECT_NE(grid.workloads[0].identity(),
              grid.workloads[1].identity());
}

TEST(CliGridSpec, NnzScaleComposesWithSeedsScaleMajor)
{
    std::istringstream in(
        "nnz = 1000\n"
        "nnz_scale = 1, 2\n"
        "seeds = 2\n"
        "wseed = 50\n"
        "[workloads]\n"
        "suite:scircuit\n");
    const cli::GridSpec grid = cli::parseGridSpec(in, "test");
    // scale-major: (x1, seed 50), (x1, seed 51), (x2, 50), (x2, 51).
    ASSERT_EQ(grid.workloads.size(), 4u);
    EXPECT_EQ(grid.workloads[0].name(), "scircuit@nnz1000");
    EXPECT_EQ(grid.workloads[1].name(), "scircuit@nnz1000");
    EXPECT_EQ(grid.workloads[2].name(), "scircuit@nnz2000");
    EXPECT_EQ(grid.workloads[3].name(), "scircuit@nnz2000");
    EXPECT_NE(grid.workloads[0].identity(),
              grid.workloads[1].identity());
}

TEST(CliGridSpec, NnzScaleWithoutTheAxisKeepsPlainNames)
{
    std::istringstream in(
        "nnz = 1000\nnnz_scale = 1\n[workloads]\nsuite:scircuit\n");
    const cli::GridSpec grid = cli::parseGridSpec(in, "test");
    ASSERT_EQ(grid.workloads.size(), 1u);
    EXPECT_EQ(grid.workloads[0].name(), "scircuit");
}

TEST(CliGridSpec, NnzScaleRejectsNonPositiveFactors)
{
    {
        std::istringstream in(
            "nnz_scale = 0\n[workloads]\nsuite:scircuit\n");
        EXPECT_THROW(cli::parseGridSpec(in, "test"), FatalError);
    }
    {
        std::istringstream in(
            "nnz_scale = -1\n[workloads]\nsuite:scircuit\n");
        EXPECT_THROW(cli::parseGridSpec(in, "test"), FatalError);
    }
    {
        std::istringstream in(
            "nnz_scale =\n[workloads]\nsuite:scircuit\n");
        EXPECT_THROW(cli::parseGridSpec(in, "test"), FatalError);
    }
}

// ------------------------------------------------- execution backends

TEST(Cli, SweepExecBackendsEmitIdenticalCsv)
{
    const std::string grid_path = writeFile(
        "sparch_exec.grid",
        "nnz = 1500\nshards = 1 2\n[workloads]\nuniform:96x96:600\n"
        "suite:wiki-Vote\n");
    const std::string inline_csv =
        uniqueTempPath("sparch_exec_inline.csv");
    const std::string threads_csv =
        uniqueTempPath("sparch_exec_threads.csv");
    std::string err;
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--csv",
                      inline_csv, "--exec", "inline"},
                     nullptr, &err),
              0);
    EXPECT_NE(err.find("failed=0"), std::string::npos);
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--csv",
                      threads_csv, "--exec", "threads", "--threads",
                      "3"},
                     nullptr, &err),
              0);
    EXPECT_EQ(fileContents(inline_csv), fileContents(threads_csv));
    EXPECT_NE(fileContents(inline_csv).find("wiki-Vote"),
              std::string::npos);

    // Unknown backends are rejected with the valid set named.
    ASSERT_EQ(runCli({"sweep", "--grid", grid_path, "--exec",
                      "quantum"},
                     nullptr, &err),
              1);
    EXPECT_NE(err.find("inline, threads or procs"),
              std::string::npos);
    std::remove(grid_path.c_str());
    std::remove(inline_csv.c_str());
    std::remove(threads_csv.c_str());
}

} // namespace
} // namespace sparch
