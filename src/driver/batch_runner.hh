/**
 * @file
 * BatchRunner: fan a grid of SpArch configurations x workloads across
 * a work-stealing thread pool.
 *
 * Every DSE sweep and figure bench in this repository is a batch of
 * independent SpGEMM simulations; BatchRunner is the one place that
 * batch shape lives. Tasks are enumerated deterministically at add()
 * time — each gets a stable id and a per-task RNG seed derived from
 * (base seed, id) by SplitMix64 — and results are returned sorted by
 * id, so an N-thread run is bit-identical to a serial run of the same
 * grid: same seeds, same simulations, same order. The thread count
 * only changes wall-clock time.
 *
 * Records aggregate into the repository's TablePrinter or CSV for
 * offline analysis. A sweep reads only the measurements and the
 * product's nonzero count, so by default the product matrix is never
 * built: the simulator counts its nonzeros instead
 * (ProductMode::Count, ShardProducts::None). keepProducts(true)
 * builds and retains it, e.g. for correctness cross-checks; `--check`
 * builds it (a sharded task only its shard blocks) to validate it and
 * then drops it.
 */

#ifndef SPARCH_DRIVER_BATCH_RUNNER_HH
#define SPARCH_DRIVER_BATCH_RUNNER_HH

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "common/table_printer.hh"
#include "core/sparch_simulator.hh"
#include "driver/sharded_simulator.hh"
#include "driver/workload.hh"

namespace sparch
{
namespace exec
{
class Executor;
} // namespace exec

namespace driver
{

class ResultCache;

/** One (configuration, workload) point of a batch grid. */
struct BatchTask
{
    /** Stable position in the grid; also the result order. */
    std::size_t id = 0;
    /** Label of the configuration axis (e.g. "1024x48"). */
    std::string configLabel;
    SpArchConfig config;
    Workload workload;
    /** Deterministic per-task seed, SplitMix64(base ^ id). */
    std::uint64_t seed = 0;
    /**
     * Shard axis: 1 simulates monolithically; > 1 cuts the left
     * operand into that many row blocks via ShardedSimulator and
     * records the merged view, so sweeps can compare sharded against
     * monolithic execution point by point.
     */
    unsigned shards = 1;
    ShardPolicy shardPolicy = ShardPolicy::NnzBalanced;
};

/** One completed grid point. */
struct BatchRecord
{
    std::size_t id = 0;
    std::string configLabel;
    std::string workloadName;
    std::uint64_t seed = 0;
    /** Row blocks the simulation ran as (1 = monolithic). */
    unsigned shards = 1;
    /** Product nonzeros (sim.resultNnz; set whether or not the
     *  matrix was built). */
    std::size_t resultNnz = 0;
    /**
     * Which tier produced the measurements: "sim" (cycle-accurate,
     * the default — every record BatchRunner itself produces) or
     * "surrogate" (batched analytic estimate; the surrogate-first
     * sweep path emits both tiers into one CSV).
     */
    std::string tier = "sim";
    SpArchResult sim;
};

/** One grid point that could not be completed. */
struct FailedPoint
{
    std::size_t id = 0;
    std::string configLabel;
    std::string workloadName;
    std::string error;
};

/** How a run's grid points were satisfied. */
struct RunStats
{
    /** Points successfully simulated this run. */
    std::size_t simulated = 0;
    /** Points satisfied from a ResultCache. */
    std::size_t cacheHits = 0;
    /**
     * Points that produced no record: the simulation threw, or (on
     * the process backend) the worker died permanently. Callers
     * surface this instead of silently dropping grid points.
     */
    std::size_t failed = 0;
    /** Per-point detail behind `failed`, sorted by task id. */
    std::vector<FailedPoint> failures;

    std::size_t total() const
    {
        return simulated + cacheHits + failed;
    }
};

/** Runs a config x workload grid, serially or across a thread pool. */
class BatchRunner
{
  public:
    /**
     * @param threads   Worker threads; <= 1 runs serially on the
     *                  calling thread. With fewer tasks to simulate
     *                  than threads, an in-process run hands each
     *                  sharded task its share of the spare ones.
     * @param base_seed Base of the per-task seed derivation.
     */
    explicit BatchRunner(unsigned threads = 1,
                         std::uint64_t base_seed = 0x5eed5eedULL);

    /**
     * Append one task; returns its id. shards > 1 runs the point
     * through ShardedSimulator with that many row blocks.
     */
    std::size_t add(std::string config_label,
                    const SpArchConfig &config, Workload workload,
                    unsigned shards = 1,
                    ShardPolicy policy = ShardPolicy::NnzBalanced);

    /**
     * Append one task with an explicit per-task seed instead of the
     * derived taskSeed(base, id). The surrogate-first sweep runs only
     * Pareto survivors, but each survivor must simulate with (and
     * record) the seed of its *original* grid id so its record — and
     * its result-cache key — is byte-identical to the untiered
     * sweep's; the caller restamps the returned records' ids back to
     * the original grid afterwards.
     */
    std::size_t addWithSeed(std::string config_label,
                            const SpArchConfig &config,
                            Workload workload, std::uint64_t seed,
                            unsigned shards = 1,
                            ShardPolicy policy =
                                ShardPolicy::NnzBalanced);

    /** Append the full cross product, configuration-major. */
    void addGrid(
        const std::vector<std::pair<std::string, SpArchConfig>> &configs,
        const std::vector<Workload> &workloads);

    /**
     * Append the config x workload x shard-count cross product, so a
     * sweep can compare sharded against monolithic execution. A shard
     * count of 1 means monolithic.
     */
    void addShardSweep(
        const std::vector<std::pair<std::string, SpArchConfig>> &configs,
        const std::vector<Workload> &workloads,
        const std::vector<unsigned> &shard_counts,
        ShardPolicy policy = ShardPolicy::NnzBalanced);

    std::size_t size() const { return tasks_.size(); }
    const std::vector<BatchTask> &tasks() const { return tasks_; }

    /** Build and retain product matrices in the records (default:
     *  only counted). */
    void keepProducts(bool keep) { keep_products_ = keep; }

    /**
     * Run every task and return records sorted by task id. The task
     * list is left intact, so a runner can be re-run.
     */
    std::vector<BatchRecord> run() const;

    /**
     * Run the grid against a persistent result cache: grid points the
     * cache already holds are returned without simulating (the cached
     * record is relabelled with this grid's id and config label), and
     * freshly simulated points are inserted into the cache. The caller
     * owns final persistence (ResultCache::save), but long runs also
     * flush the cache incrementally as records complete, so a killed
     * sweep resumes from everything it already measured. Cached
     * records carry the CSV scalars but neither the product matrix
     * nor module stats, so a runner with keepProducts(true) bypasses
     * the cache entirely.
     *
     * Points that fail (simulation threw, worker died permanently)
     * are omitted from the returned records and accounted in
     * RunStats::failed/failures instead of aborting the run.
     *
     * @param cache nullptr behaves exactly like run().
     * @param stats Optional hit/miss/failure accounting.
     */
    std::vector<BatchRecord> run(ResultCache *cache,
                                 RunStats *stats = nullptr) const;

    /**
     * Run the grid through an explicit execution backend (see
     * exec/executor.hh for the three backends and the determinism
     * contract). The two-argument run() is this with a
     * ThreadPoolExecutor of the constructor's thread count (one
     * thread runs inline). An in-process executor runs each
     * sharded task's row blocks on max(1, threads / tasks to
     * simulate) workers, with threads the constructor's count;
     * out-of-process executors run them serially. keepProducts(true)
     * requires an in-process executor and throws FatalError
     * otherwise.
     */
    std::vector<BatchRecord> run(exec::Executor &executor,
                                 ResultCache *cache = nullptr,
                                 RunStats *stats = nullptr) const;

    /**
     * Simulate one task in isolation (the worker-subprocess entry
     * point; the in-process executors funnel through it too).
     *
     * @param shard_threads Workers a sharded task runs its row blocks
     *        on; 1 (the worker-subprocess default) runs them serially
     *        on the calling thread. run() passes an in-process
     *        executor's spare share, max(1, threads / tasks). Results
     *        do not depend on it.
     */
    static BatchRecord simulateTask(const BatchTask &task,
                                    bool keep_products,
                                    unsigned shard_threads = 1);

    /** The per-task seed derivation (exposed for tests). */
    static std::uint64_t taskSeed(std::uint64_t base_seed,
                                  std::size_t id);

    /** Render records as an aligned console table. */
    static TablePrinter toTable(const std::vector<BatchRecord> &records,
                                const std::string &title);

    /** Write records as CSV (header + one line per record). */
    static void writeCsv(const std::vector<BatchRecord> &records,
                         std::ostream &out);

    /** The writeCsv column list (no trailing newline). */
    static const char *csvHeader();

    /** Write one record as a writeCsv data line (with newline). */
    static void writeCsvRow(const BatchRecord &record,
                            std::ostream &out);

    /**
     * Parse one writeCsv data line back into a record (scalar fields
     * only; the product matrix and module stats are not serialized).
     * Returns false on a malformed line.
     */
    static bool parseCsvRow(const std::string &line,
                            BatchRecord &record);

  private:
    std::vector<BatchTask> tasks_;
    unsigned threads_;
    std::uint64_t base_seed_;
    bool keep_products_ = false;
};

} // namespace driver
} // namespace sparch

#endif // SPARCH_DRIVER_BATCH_RUNNER_HH
