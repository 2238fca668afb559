#include "cli/commands.hh"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <future>
#include <numeric>

#include "baselines/benchmarks.hh"
#include "check/invariants.hh"
#include "cli/flags.hh"
#include "cli/spec.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "common/table_printer.hh"
#include "driver/batch_runner.hh"
#include "driver/result_cache.hh"
#include "driver/thread_pool.hh"
#include "dse/pareto.hh"
#include "dse/surrogate.hh"
#include "dse/workload_stats.hh"
#include "exec/executor.hh"
#include "exec/process_pool_executor.hh"
#include "matrix/matrix_market.hh"
#include "matrix/scsr.hh"

namespace sparch
{
namespace cli
{

namespace
{

using driver::BatchRecord;
using driver::BatchRunner;
using driver::ResultCache;
using driver::RunStats;

const char *kUsage =
    "usage: sparch <command> [flags]\n"
    "\n"
    "commands:\n"
    "  run [flags] <workload-spec>...   simulate workloads at one "
    "config\n"
    "  sweep --grid FILE [flags]        run a grid-spec sweep\n"
    "  workloads                        list suite matrices and the "
    "spec grammar\n"
    "  cache stats|clear --cache FILE   inspect or drop a result "
    "cache\n"
    "  convert <in.mtx> <out.scsr>      convert a Matrix Market file "
    "to the\n"
    "                                   binary .scsr format\n"
    "  worker --tasks FILE              internal: simulate manifest "
    "task ids fed on stdin\n"
    "  help                             this text\n"
    "\n"
    "run flags:\n"
    "  --config k=v[,k=v...]  overrides on the Table I configuration\n"
    "                         (memory=hbm|ddr4|lpddr4|ideal selects "
    "the DRAM backend)\n"
    "  --label NAME           config label in tables/CSV (default: "
    "the overrides)\n"
    "  --nnz N                suite-proxy nnz target (default 60000)\n"
    "  --wseed N              workload generator seed (default 42)\n"
    "  --seed N               batch base seed (default 0x5eed5eed)\n"
    "  --shards N             row-block shards per point (default 1)\n"
    "  --policy row|nnz       shard balancing policy (default nnz)\n"
    "  --threads N            worker threads (default: all cores)\n"
    "  --csv PATH             also write records as CSV ('-' = "
    "stdout)\n"
    "  --cache PATH           persistent result cache to use\n"
    "  --profile              print a wall-clock phase breakdown per "
    "record\n"
    "                         (leaf build / plan / cycle loop / CSR "
    "convert)\n"
    "  --check                validate every simulated product "
    "against the\n"
    "                         reference SpGEMM and cross-check all "
    "statistics\n"
    "                         (expensive; also accepted by sweep and "
    "worker)\n"
    "\n"
    "sweep flags: --grid FILE plus --csv/--cache/--threads/--table as "
    "above, and\n"
    "  --exec inline|threads|procs  execution backend (default "
    "threads);\n"
    "                               all three emit byte-identical "
    "CSVs\n"
    "  --procs N              worker subprocesses for --exec=procs\n"
    "                         (default: all cores; a dead worker's "
    "tasks\n"
    "                         are requeued to the survivors)\n"
    "sweep exits 3 when grid points failed (they are reported and "
    "omitted\n"
    "from the CSV; re-run with --cache to simulate only those "
    "points)\n"
    "\n"
    "surrogate-first sweep (two-tier DSE):\n"
    "  --surrogate            score every grid point with the batched "
    "analytic\n"
    "                         model first, then simulate only the "
    "Pareto\n"
    "                         survivors (cycles x energy x DRAM "
    "traffic);\n"
    "                         the CSV carries both tiers via its "
    "'tier' column;\n"
    "                         frontiers are per workload x shard "
    "group, across\n"
    "                         the config axis\n"
    "  --surrogate-keep K     total simulation budget, split evenly "
    "across the\n"
    "                         groups (default 10% of the grid, at "
    "least one per\n"
    "                         group; 0 = the whole Pareto frontier)\n"
    "\n"
    "convert flags:\n"
    "  --verify               re-read the written file and check its "
    "content\n"
    "                         hash before reporting success\n"
    "\n"
    "workload specs:\n"
    "  suite:<name> | suite:*            20-matrix suite proxies\n"
    "  rmat:<vertices>x<edge_factor>     R-MAT adjacency squared\n"
    "  uniform:<rows>x<cols>:<nnz>       uniform random squared\n"
    "  dnn:<hidden>x<batch>:<density>    pruned-MLP layer W x X\n"
    "  mtx:<path> or <path>.mtx          Matrix Market file squared\n"
    "  scsr:<path> or <path>.scsr        binary CSR file squared "
    "(produce\n"
    "                                    with sparch convert)\n";

unsigned
resolveThreads(unsigned requested)
{
    return requested == 0 ? driver::ThreadPool::hardwareThreads()
                          : requested;
}

/** The CI-greppable accounting line every cached run ends with. */
void
reportStats(const RunStats &stats, const ResultCache *cache,
            std::ostream &err)
{
    // Failed points are never dropped silently: each one is named
    // before the summary line counts them.
    for (const driver::FailedPoint &f : stats.failures) {
        err << "sparch: point " << f.id << " (" << f.configLabel
            << " x " << f.workloadName << ") failed: " << f.error
            << "\n";
    }
    err << "sparch: " << stats.total()
        << " grid points, simulated=" << stats.simulated
        << ", cache-hits=" << stats.cacheHits
        << ", failed=" << stats.failed;
    if (cache != nullptr && !cache->path().empty()) {
        err << " (cache '" << cache->path() << "', " << cache->size()
            << " entries)";
    }
    err << "\n";
}

/**
 * File workloads are named by their file stem, so two different files
 * with one stem would be indistinguishable in the CSV. Reject such a
 * grid up front, naming both paths.
 */
void
checkFileWorkloadNames(const std::vector<driver::Workload> &workloads)
{
    std::map<std::string, std::string> path_of;
    for (const driver::Workload &w : workloads) {
        if (!w.hasSpec())
            continue;
        const std::string &text = w.spec().text;
        const std::size_t colon = text.find(':');
        const std::string family = text.substr(0, colon);
        if (family != "mtx" && family != "scsr")
            continue;
        const std::string path = text.substr(colon + 1);
        const auto [it, fresh] = path_of.emplace(w.name(), path);
        if (!fresh && it->second != path) {
            fatal("workloads '", it->second, "' and '", path,
                  "' share the name '", w.name(),
                  "'; rename one of the files");
        }
    }
}

/** Round a nonnegative surrogate estimate into an integer column. */
std::uint64_t
estU64(double value)
{
    return value <= 0.0 ? 0
                        : static_cast<std::uint64_t>(value + 0.5);
}

/** Map one surrogate estimate into the record CSV schema. */
BatchRecord
makeSurrogateRecord(const GridSpec &grid, const GridPointRef &ref,
                    const sparch::dse::SurrogateEstimate &est)
{
    BatchRecord r;
    r.id = ref.id;
    r.configLabel = grid.configs[ref.configIdx].first;
    r.workloadName = grid.workloads[ref.workloadIdx].name();
    r.seed = BatchRunner::taskSeed(grid.seed, ref.id);
    r.shards = grid.shards[ref.shardIdx];
    r.resultNnz = static_cast<std::size_t>(estU64(est.outputNnz));
    r.tier = "surrogate";
    r.sim.cycles = estU64(est.cycles);
    r.sim.seconds = est.seconds;
    r.sim.flops = estU64(2.0 * est.multiplies);
    r.sim.gflops = est.gflops;
    r.sim.bytesMatA = estU64(est.bytesMatA);
    r.sim.bytesMatB = estU64(est.bytesMatB);
    r.sim.bytesPartialRead = estU64(est.bytesPartialRead);
    r.sim.bytesPartialWrite = estU64(est.bytesPartialWrite);
    r.sim.bytesFinalWrite = estU64(est.bytesFinalWrite);
    r.sim.bytesTotal = estU64(est.bytesTotal);
    r.sim.bandwidthUtilization = est.bandwidthUtilization;
    r.sim.prefetchHitRate = est.prefetchHitRate;
    r.sim.multiplies = estU64(est.multiplies);
    r.sim.additions = estU64(est.additions);
    r.sim.partialMatrices = estU64(est.partialMatrices);
    r.sim.mergeRounds = estU64(est.mergeRounds);
    return r;
}

/** Mean/max |surrogate - simulated| / simulated over survivors. */
struct CalibrationError
{
    double sum = 0.0;
    double max = 0.0;
    std::size_t n = 0;

    void
    sample(double estimate, double simulated)
    {
        if (simulated <= 0.0)
            return;
        const double rel =
            std::fabs(estimate - simulated) / simulated;
        sum += rel;
        if (rel > max)
            max = rel;
        ++n;
    }

    double mean() const { return n == 0 ? 0.0 : sum / n; }
};

/**
 * The stats, surrogate and Pareto stages of a --surrogate grid: score
 * every point with the batched analytic evaluator into `scored` (one
 * surrogate record per grid id, ids ascending) and return the
 * per-group Pareto survivors' ids, ascending.
 */
std::vector<std::size_t>
surrogateSurvivors(const GridSpec &grid, unsigned threads,
                   const FlagSet &flags, std::vector<BatchRecord> &scored,
                   std::ostream &err)
{
    namespace dse = sparch::dse;
    const std::size_t total = gridPointCount(grid);

    // Stats tier: one extraction per unique workload, persisted in a
    // sidecar next to the result cache so repeat sweeps never
    // materialize known operands.
    const std::string cache_path = flags.get("cache");
    dse::WorkloadStatsCache stats_cache(
        cache_path.empty() ? std::string{} : cache_path + ".stats");
    dse::WorkloadStatsSoA soa;
    for (const driver::Workload &w : grid.workloads)
        soa.push(stats_cache.obtain(w));
    stats_cache.save();

    // Surrogate tier: one evaluator per config over the shared stats,
    // fanned across the pool (configs are independent).
    std::vector<dse::SurrogateBatch> batches(grid.configs.size());
    const auto evaluate_config = [&grid, &soa, &batches](
                                     std::size_t c) {
        const dse::SurrogateEvaluator evaluator(
            grid.configs[c].second);
        evaluator.evaluate(soa, batches[c]);
    };
    if (threads > 1 && grid.configs.size() > 1) {
        driver::ThreadPool pool(threads);
        std::vector<std::future<void>> futures;
        futures.reserve(grid.configs.size());
        for (std::size_t c = 0; c < grid.configs.size(); ++c)
            futures.push_back(
                pool.submit([&evaluate_config, c] {
                    evaluate_config(c);
                }));
        for (std::future<void> &f : futures)
            f.get();
    } else {
        for (std::size_t c = 0; c < grid.configs.size(); ++c)
            evaluate_config(c);
    }

    // Offer every point in id order (deterministic regardless of the
    // evaluation thread count) and keep the full surrogate tier for
    // the CSV. Frontiers are per (workload x shard) group, across the
    // config axis: objectives of different workloads differ by orders
    // of magnitude, so a grid-wide frontier would collapse onto the
    // cheapest workload instead of ranking design points.
    const std::size_t groups =
        grid.workloads.size() * grid.shards.size();
    std::vector<dse::ParetoFilter> filters(groups);
    scored.reserve(total);
    for (std::size_t id = 0; id < total; ++id) {
        const GridPointRef ref = gridPointAt(grid, id);
        const dse::SurrogateEstimate est =
            batches[ref.configIdx].get(ref.workloadIdx);
        filters[ref.workloadIdx * grid.shards.size() + ref.shardIdx]
            .offer(id, {est.cycles, est.energyJ, est.bytesTotal});
        scored.push_back(makeSurrogateRecord(grid, ref, est));
    }

    // --surrogate-keep is the total simulation budget, split evenly
    // across the groups (at least one survivor each); 0 lifts the cap
    // and simulates every frontier point.
    const std::size_t keep =
        flags.has("surrogate-keep")
            ? static_cast<std::size_t>(
                  flags.getU64("surrogate-keep", 0))
            : std::max<std::size_t>(1, total / 10);
    const std::size_t keep_per_group =
        keep == 0 ? 0 : std::max<std::size_t>(1, keep / groups);
    std::size_t frontier_size = 0;
    std::vector<std::size_t> survivors;
    for (const dse::ParetoFilter &filter : filters) {
        frontier_size += filter.size();
        for (const dse::ParetoPoint &p :
             filter.survivors(keep_per_group))
            survivors.push_back(p.id);
    }
    std::sort(survivors.begin(), survivors.end());
    err << "sparch: surrogate tier: " << total
        << " points evaluated, frontier=" << frontier_size
        << ", survivors=" << survivors.size() << " ("
        << TablePrinter::num(
               total == 0 ? 0.0
                          : 100.0 * static_cast<double>(
                                        survivors.size()) /
                                static_cast<double>(total),
               1)
        << "% simulated)\n";
    return survivors;
}

/** Prints a command's own view of the simulated records. */
using Presenter = std::function<void(const std::vector<BatchRecord> &)>;

/**
 * The one grid pipeline behind `run` and `sweep`: the stats and
 * surrogate stages with the Pareto filter (under --surrogate only),
 * execute, calibrate, emit. A plain grid is the same pipeline with
 * every point surviving. `present` prints the command's own view of
 * the simulated records between the CSV and the summary line. Returns
 * the exit code: 0, or 3 when grid points failed.
 */
int
runGrid(const GridSpec &grid, const FlagSet &flags, std::ostream &out,
        std::ostream &err, const Presenter &present)
{
    checkFileWorkloadNames(grid.workloads);
    const unsigned threads = resolveThreads(grid.threads);
    const bool tiered = flags.has("surrogate");

    std::vector<BatchRecord> scored;
    std::vector<std::size_t> survivors;
    if (tiered) {
        survivors = surrogateSurvivors(grid, threads, flags, scored, err);
    } else {
        survivors.resize(gridPointCount(grid));
        std::iota(survivors.begin(), survivors.end(), std::size_t{0});
    }

    // Execute. Runner task k is survivor k, simulated with (and
    // recording) the seed of its grid id and restamped back to that
    // id afterwards, so a survivor's record and cache key are a plain
    // sweep's. With every point surviving these are exactly
    // addShardSweep's tasks.
    BatchRunner runner(threads, grid.seed);
    for (const std::size_t id : survivors) {
        const GridPointRef ref = gridPointAt(grid, id);
        runner.addWithSeed(grid.configs[ref.configIdx].first,
                           grid.configs[ref.configIdx].second,
                           grid.workloads[ref.workloadIdx],
                           BatchRunner::taskSeed(grid.seed, id),
                           grid.shards[ref.shardIdx], grid.policy);
    }
    const std::string kind = flags.get("exec", "threads");
    sparch::exec::ProcessPoolOptions procs;
    procs.procs = resolveThreads(flags.getUnsigned("procs", 0));
    const std::unique_ptr<sparch::exec::Executor> executor =
        sparch::exec::makeExecutor(kind, threads, procs);
    if (!executor)
        fatal("--exec '", kind, "' is not inline, threads or procs");
    ResultCache cache(flags.get("cache"));
    ResultCache *cache_ptr = flags.has("cache") ? &cache : nullptr;
    RunStats stats;
    std::vector<BatchRecord> simulated =
        runner.run(*executor, cache_ptr, &stats);
    if (cache_ptr != nullptr)
        cache_ptr->save();
    for (BatchRecord &r : simulated)
        r.id = survivors[r.id];
    for (driver::FailedPoint &f : stats.failures)
        f.id = survivors[f.id];

    // Calibrate: surrogate-vs-simulated relative error on the
    // survivors that actually simulated.
    if (tiered) {
        CalibrationError cycles_err;
        CalibrationError bytes_err;
        for (const BatchRecord &r : simulated) {
            const BatchRecord &est = scored[r.id];
            cycles_err.sample(static_cast<double>(est.sim.cycles),
                              static_cast<double>(r.sim.cycles));
            bytes_err.sample(static_cast<double>(est.sim.bytesTotal),
                             static_cast<double>(r.sim.bytesTotal));
        }
        err << "sparch: surrogate calibration (" << simulated.size()
            << " survivors): cycles mean="
            << TablePrinter::num(100.0 * cycles_err.mean(), 1)
            << "% max=" << TablePrinter::num(100.0 * cycles_err.max, 1)
            << "%; dram-bytes mean="
            << TablePrinter::num(100.0 * bytes_err.mean(), 1)
            << "% max=" << TablePrinter::num(100.0 * bytes_err.max, 1)
            << "%\n";
    }

    // Emit one CSV: the surrogate tier, if scored, then the simulated
    // records, each with ids ascending.
    const std::string csv = flags.get("csv");
    if (!csv.empty()) {
        std::vector<BatchRecord> rows = std::move(scored);
        rows.insert(rows.end(), simulated.begin(), simulated.end());
        std::ofstream file;
        if (csv != "-") {
            file.open(csv);
            if (!file)
                fatal("cannot write CSV to '", csv, "'");
        }
        BatchRunner::writeCsv(rows, csv == "-" ? out : file);
    }
    present(simulated);
    reportStats(stats, cache_ptr, err);
    return stats.failed == 0 ? 0 : 3;
}

int
cmdRun(const std::vector<std::string> &args, std::ostream &out,
       std::ostream &err)
{
    const FlagSet flags(args,
                        {"config", "label", "nnz", "wseed", "seed",
                         "shards", "policy", "threads", "csv",
                         "cache"},
                        {"check", "profile"});
    if (flags.positional().empty())
        fatal("run: no workload specs (try 'sparch workloads')");
    check::setDeepChecks(flags.has("check"));
    profile::setEnabled(flags.has("profile"));

    // A run is a one-config sweep: {label, config} x the specs'
    // workloads x {--shards}.
    GridSpec grid;
    grid.defaults.nnz = flags.getU64("nnz", grid.defaults.nnz);
    grid.defaults.seed = flags.getU64("wseed", grid.defaults.seed);
    const std::string overrides = flags.get("config");
    const SpArchConfig config = parseConfigOverrides(overrides);
    const std::string label =
        flags.get("label", overrides.empty() ? "table-I" : overrides);
    grid.configs = {{label, config}};
    grid.shards = {flags.getUnsigned("shards", 1)};
    grid.policy = parseShardPolicy(flags.get("policy", "nnz"));
    grid.threads = flags.getUnsigned("threads", 0);
    grid.seed = flags.getU64("seed", grid.seed);
    for (const std::string &spec : flags.positional()) {
        for (driver::Workload &w : parseWorkloadSpec(spec, grid.defaults))
            grid.workloads.push_back(std::move(w));
    }

    const auto present = [&](const std::vector<BatchRecord> &records) {
        if (flags.get("csv") != "-")
            BatchRunner::toTable(records, "sparch run").print(out);
        if (!flags.has("profile"))
            return;
        // Wall-clock phase breakdown (summed across shards). The
        // per-module cycle/occupancy counters are in the stats set.
        for (const BatchRecord &r : records) {
            const StatSet &s = r.sim.stats;
            out << "profile " << r.configLabel << " x "
                << r.workloadName << ": total "
                << s.get("profile.total_seconds") << "s = leaves "
                << s.get("profile.leaves_seconds") << "s + plan "
                << s.get("profile.plan_seconds") << "s + rounds "
                << s.get("profile.rounds_seconds") << "s + convert "
                << s.get("profile.convert_seconds") << "s ("
                << r.sim.cycles << " cycles)\n";
        }
    };
    return runGrid(grid, flags, out, err, present);
}

int
cmdSweep(const std::vector<std::string> &args, std::ostream &out,
         std::ostream &err)
{
    const FlagSet flags(
        args,
        {"grid", "csv", "cache", "threads", "exec", "procs",
         "surrogate-keep"},
        {"table", "check", "surrogate"});
    if (!flags.positional().empty())
        fatal("sweep: unexpected argument '", flags.positional()[0],
              "' (workloads belong in the grid file)");
    check::setDeepChecks(flags.has("check"));
    const std::string grid_path = flags.get("grid");
    if (grid_path.empty())
        fatal("sweep: --grid FILE is required");

    GridSpec grid = parseGridSpecFile(grid_path);
    if (!flags.has("surrogate") && flags.has("surrogate-keep"))
        fatal("sweep: --surrogate-keep needs --surrogate");
    if (flags.has("threads"))
        grid.threads = flags.getUnsigned("threads", 0);

    const std::string title =
        flags.has("surrogate") ? "sparch sweep (surrogate survivors): "
                               : "sparch sweep: ";
    const auto present = [&](const std::vector<BatchRecord> &records) {
        if (flags.get("csv").empty() || flags.has("table"))
            BatchRunner::toTable(records, title + grid_path).print(out);
    };
    return runGrid(grid, flags, out, err, present);
}

const char *
familyName(MatrixFamily family)
{
    switch (family) {
    case MatrixFamily::Fem:
        return "fem";
    case MatrixFamily::PowerLaw:
        return "power-law";
    case MatrixFamily::Road:
        return "road";
    case MatrixFamily::Circuit:
        return "circuit";
    case MatrixFamily::Mesh:
        return "mesh";
    }
    return "?";
}

int
cmdWorkloads(const std::vector<std::string> &args, std::ostream &out)
{
    FlagSet(args, {}, {}); // rejects stray flags
    TablePrinter table("built-in suite (paper Figs. 11/12; proxies "
                       "generated at --nnz scale)");
    table.header({"spec", "true rows", "true nnz", "family"});
    for (const BenchmarkSpec &s : benchmarkSuite()) {
        table.row({"suite:" + s.name, std::to_string(s.rows),
                   std::to_string(s.nnz), familyName(s.family)});
    }
    table.print(out);
    out << "\nother families: rmat:<v>x<ef>  uniform:<r>x<c>:<nnz>  "
           "dnn:<h>x<b>:<density>  mtx:<path>  scsr:<path>\n";
    return 0;
}

int
cmdCache(const std::vector<std::string> &args, std::ostream &out)
{
    const FlagSet flags(args, {"cache"}, {});
    const std::string path = flags.get("cache");
    if (path.empty())
        fatal("cache: --cache FILE is required");
    if (flags.positional().size() != 1)
        fatal("cache: expected one action, stats or clear");

    const std::string &action = flags.positional()[0];
    if (action != "stats" && action != "clear") {
        fatal("cache: unknown action '", action,
              "'; expected stats or clear");
    }
    ResultCache cache(path);
    if (action == "stats") {
        out << "cache '" << path << "': " << cache.size()
            << " entries\n";
        return 0;
    }
    const std::size_t n = cache.size();
    cache.clear();
    out << "cache '" << path << "': dropped " << n << " entries\n";
    return 0;
}

/**
 * Convert a Matrix Market file to the binary .scsr format: read it
 * into memory with readMatrixMarketFile, write it with writeScsr and,
 * under --verify, re-hash the written sections against the header.
 */
int
cmdConvert(const std::vector<std::string> &args, std::ostream &out)
{
    const FlagSet flags(args, {}, {"verify"});
    if (flags.positional().size() != 2)
        fatal("convert: expected <in.mtx> <out.scsr>");
    const std::string &in_path = flags.positional()[0];
    const std::string &out_path = flags.positional()[1];

    // sparch-audit: allow(nondet-in-keyed, wall-clock throughput
    // report on the human-facing summary line - never keyed or CSV)
    const auto t0 = std::chrono::steady_clock::now();
    const CsrMatrix m = readMatrixMarketFile(in_path);
    // sparch-audit: allow(nondet-in-keyed, same timing report)
    const auto t1 = std::chrono::steady_clock::now();
    const ScsrHeader header = writeScsr(m, out_path);
    // sparch-audit: allow(nondet-in-keyed, same timing report)
    const auto t2 = std::chrono::steady_clock::now();
    const double read_s = std::chrono::duration<double>(t1 - t0).count();
    const double write_s = std::chrono::duration<double>(t2 - t1).count();
    const double seconds = read_s + write_s;

    if (flags.has("verify"))
        verifyScsrContent(out_path);

    const auto mb = [](std::uint64_t bytes) {
        std::ostringstream s;
        s << std::fixed << std::setprecision(2)
          << static_cast<double>(bytes) / 1e6 << " MB";
        return s.str();
    };
    const auto secs = [](double v) {
        std::ostringstream s;
        s << std::fixed << std::setprecision(3) << v << " s";
        return s.str();
    };
    const std::uint64_t bytes_in = std::filesystem::file_size(in_path);
    TablePrinter table("convert " + in_path + " -> " + out_path);
    table.header({"stat", "value"});
    table.row({"shape", std::to_string(header.rows) + " x " +
                            std::to_string(header.cols)});
    table.row({"nnz (merged)", std::to_string(header.nnz)});
    table.row({"bytes in", mb(bytes_in)});
    table.row({"bytes out", mb(header.file_bytes)});
    table.row({"read", secs(read_s)});
    table.row({"write", secs(write_s)});
    table.print(out);

    std::ostringstream rate;
    rate << std::fixed << std::setprecision(1);
    if (seconds > 0.0) {
        rate << static_cast<double>(bytes_in) / 1e6 / seconds << " MB/s";
    } else {
        rate << "inf MB/s";
    }
    out << "sparch: converted " << mb(bytes_in) << " in " << secs(seconds)
        << " (" << rate.str() << ")"
        << (flags.has("verify") ? ", content hash verified" : "")
        << "\n";
    return 0;
}

/**
 * The multi-process backend's subprocess side: parse the shared task
 * manifest, then simulate one task id per line of stdin (or the
 * comma-separated `--ids` list, for in-process tests), answering each
 * with exactly one line on stdout — a record in the result-cache CSV
 * schema (`<16-hex cache key>,<writeCsv row>`), or `err <id> <what>`
 * when the simulation threw. Output is flushed per line: the parent
 * schedules on completed lines, and a buffered record would count as
 * lost work if this process dies.
 *
 * `--exit-after N` hard-exits after N records — the deterministic
 * crash injection behind the worker-kill tests and the CI exec-smoke
 * job.
 */
int
cmdWorker(const std::vector<std::string> &args, std::ostream &out)
{
    const FlagSet flags(args, {"tasks", "ids", "exit-after"},
                        {"check"});
    const std::string manifest_path = flags.get("tasks");
    if (manifest_path.empty())
        fatal("worker: --tasks FILE is required");
    check::setDeepChecks(flags.has("check"));
    const std::uint64_t exit_after = flags.getU64("exit-after", 0);

    std::map<std::size_t, const driver::BatchTask *> by_id;
    const std::vector<driver::BatchTask> tasks =
        parseWorkerManifestFile(manifest_path);
    for (const driver::BatchTask &task : tasks)
        by_id[task.id] = &task;

    std::uint64_t emitted = 0;
    const auto simulate = [&](const std::string &token) {
        std::size_t id = 0;
        const driver::BatchTask *task = nullptr;
        try {
            id = static_cast<std::size_t>(
                parseU64(token, "task id"));
            const auto it = by_id.find(id);
            if (it == by_id.end())
                fatal("task id ", id, " is not in the manifest");
            task = it->second;
            const BatchRecord record = BatchRunner::simulateTask(
                *task, /*keep_products=*/false);
            std::ostringstream line;
            line << std::hex << std::setw(16) << std::setfill('0')
                 << driver::ResultCache::taskKey(*task) << std::dec
                 << std::setfill(' ') << ',';
            BatchRunner::writeCsvRow(record, line);
            out << line.str();
        } catch (const std::exception &e) {
            // One line per answer: newlines inside the message would
            // desynchronize the protocol.
            std::string message = e.what();
            for (char &c : message)
                if (c == '\n' || c == '\r')
                    c = ' ';
            out << "err " << token << ' ' << message << '\n';
        }
        out.flush();
        if (exit_after > 0 && ++emitted >= exit_after) {
            // Simulated crash: no unwinding, no flushing beyond what
            // already hit the pipe.
            std::_Exit(3);
        }
    };

    if (flags.has("ids")) {
        std::istringstream ids(flags.get("ids"));
        std::string token;
        while (std::getline(ids, token, ','))
            if (!token.empty())
                simulate(token);
        return 0;
    }
    std::string line;
    while (std::getline(std::cin, line)) {
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        if (!line.empty())
            simulate(line);
    }
    return 0;
}

} // namespace

int
run(const std::vector<std::string> &args, std::ostream &out,
    std::ostream &err)
{
    try {
        if (args.empty() || args[0] == "help" || args[0] == "--help" ||
            args[0] == "-h") {
            out << kUsage;
            return args.empty() ? 1 : 0;
        }
        const std::string &command = args[0];
        const std::vector<std::string> rest(args.begin() + 1,
                                            args.end());
        if (command == "run")
            return cmdRun(rest, out, err);
        if (command == "sweep")
            return cmdSweep(rest, out, err);
        if (command == "workloads")
            return cmdWorkloads(rest, out);
        if (command == "cache")
            return cmdCache(rest, out);
        if (command == "convert")
            return cmdConvert(rest, out);
        if (command == "worker")
            return cmdWorker(rest, out);
        fatal("unknown command '", command,
              "'; try 'sparch help'");
    } catch (const FatalError &e) {
        err << "sparch: " << e.what() << "\n";
        return 1;
    }
}

} // namespace cli
} // namespace sparch
