/**
 * @file
 * Sharded SpGEMM: one simulation as cooperating row-block sub-problems.
 *
 * SpArch's outer-product formulation makes the left operand separable
 * by rows: every row block of A yields an independent row block of
 * C = A x B, computed against the full (shared, read-only) B. A
 * ShardPlan cuts A into K contiguous row ranges — balanced by row
 * count or by nonzeros — and ShardedSimulator runs one SpArchSimulator
 * multiply per range as tasks on the driver's ThreadPool, then merges
 * the measurements. What it builds of the product is the caller's
 * choice (ShardProducts): the stacked product (CsrMatrix::vstack of
 * the shard blocks), the shard blocks alone, or only the nonzero
 * count.
 *
 * Merged measurements follow a documented model:
 *
 *  - cycles      = max over shards (the critical path of a fleet of K
 *                  accelerators working in parallel) + the stitch
 *                  overhead below;
 *  - stitch      = rebasing the K per-shard row-pointer arrays into
 *                  the combined CSR header: every shard's row-pointer
 *                  array is read once and the combined array written
 *                  once, at peak HBM bandwidth plus one access
 *                  latency. Element data needs no movement — row
 *                  blocks are disjoint and already ordered;
 *  - bytes/flops = sums over shards. MatA element traffic and final-
 *                  write element traffic partition exactly; each
 *                  shard re-emits its own row-pointer tail (one extra
 *                  entry per additional shard) and may re-read B rows
 *                  that another shard also touched, so summed MatB
 *                  traffic is >= the monolithic run's;
 *  - bandwidth   = summed bytes / (K x one memory's peak bytes per
 *    utilization   cycle x merged cycles): each accelerator of the
 *                  fleet streams through its own memory, so the
 *                  merged value stays in [0, 1];
 *  - statistics  = summed over shards, name by name, plus the five
 *                  shard.* gauges (count, max_cycles, stitch_cycles,
 *                  stitch_bytes, nnz_imbalance). Every module stat
 *                  is a count, so the sum is exact; a reader derives
 *                  a ratio from the summed counts (hits over hits +
 *                  misses).
 *
 * None of the measurements depends on what is built of the product.
 *
 * Exactness: the stacked product always has exactly the monolithic
 * run's sparsity structure (row pointers and column indices), and a
 * sharded run is bit-deterministic — the same plan yields the same
 * product and counters at any thread count. Values match the
 * monolithic run bit for bit whenever no output element sums more
 * than two partial products; beyond that the simulated adder slices
 * fold equal-coordinate runs over timing-dependent windows, so the
 * floating-point association — and hence the final ulp — legitimately
 * differs between runs of different operand shapes (this is hardware
 * behaviour, not a sharding artifact; the monolithic simulator
 * differs from reference SpGEMM the same way).
 */

#ifndef SPARCH_DRIVER_SHARDED_SIMULATOR_HH
#define SPARCH_DRIVER_SHARDED_SIMULATOR_HH

#include <cstddef>
#include <vector>

#include "core/sparch_simulator.hh"
#include "matrix/csr.hh"

namespace sparch
{
namespace driver
{

/** How a ShardPlan balances the row-block cuts. */
enum class ShardPolicy
{
    RowBalanced, //!< equal row counts per shard
    NnzBalanced  //!< equal left-operand nonzeros per shard (greedy)
};

/** Printable policy name. */
const char *shardPolicyName(ShardPolicy policy);

/** One contiguous row block [begin, end) of the left operand. */
struct ShardRange
{
    Index begin = 0;
    Index end = 0;
    /** Left-operand nonzeros inside the range. */
    std::size_t nnz = 0;

    Index rows() const { return end - begin; }
};

/**
 * A partition of the left operand's rows into contiguous, disjoint,
 * covering ranges. Never produces empty ranges: the shard count is
 * clamped to the row count, so a 3-row matrix asked for 8 shards gets
 * 3 single-row shards, and an empty matrix gets an empty plan.
 */
class ShardPlan
{
  public:
    ShardPlan() = default;

    /**
     * Cut a's rows by policy: RowBalanced splits into (near-)equal
     * row counts; NnzBalanced greedily targets equal nonzeros per
     * shard, re-aiming at the remaining average after each cut so one
     * heavy row early on does not starve the later shards of rows.
     * A shard count of 0 is treated as 1.
     */
    static ShardPlan make(ShardPolicy policy, const CsrMatrix &a,
                          unsigned shards);

    const std::vector<ShardRange> &ranges() const { return ranges_; }
    std::size_t size() const { return ranges_.size(); }
    bool empty() const { return ranges_.empty(); }

    /**
     * Load-balance quality: max shard nnz over mean shard nnz. 1.0 is
     * a perfect split; large values mean one shard dominates the
     * critical path. Returns 1.0 for empty or nnz-free plans.
     */
    double nnzImbalance() const;

  private:
    explicit ShardPlan(std::vector<ShardRange> ranges)
        : ranges_(std::move(ranges))
    {}

    std::vector<ShardRange> ranges_;
};

/** What a sharded multiply builds of the product. */
enum class ShardProducts
{
    Stacked, //!< each shard's block and the stacked product
    Blocks,  //!< each shard's block; the stacked product stays empty
    None,    //!< neither: only the nonzero counts
};

/** Everything measured during one sharded SpGEMM. */
struct ShardedResult
{
    /**
     * Merged view: the stacked product (ShardProducts::Stacked only),
     * its summed nonzero count, critical-path cycles (max over shards
     * + stitch), summed traffic/operation counters, fleet bandwidth
     * utilization, and the per-module stats summed over shards plus
     * the shard.* gauges.
     */
    SpArchResult combined;

    /**
     * Raw per-shard results, in plan order; each holds its block of
     * the product unless the run was ShardProducts::None.
     */
    std::vector<SpArchResult> shards;

    /** The row-block partition that was executed. */
    ShardPlan plan;

    /** Modeled row-pointer stitch pass: cycles and bytes moved. */
    Cycle stitchCycles = 0;
    Bytes stitchBytes = 0;
};

/**
 * Runs one SpGEMM as a ShardPlan's row blocks fanned across a thread
 * pool. Results are bit-identical regardless of thread count: shards
 * are independent simulations and the merge is a deterministic fold in
 * plan order.
 */
class ShardedSimulator
{
  public:
    /**
     * @param config  Accelerator configuration for every shard.
     * @param policy  How to cut the left operand.
     * @param shards  Row blocks per multiply (0 is treated as 1).
     * @param threads Pool workers; <= 1 runs shards serially on the
     *                calling thread (useful inside an outer pool).
     */
    ShardedSimulator(const SpArchConfig &config, ShardPolicy policy,
                     unsigned shards, unsigned threads = 1);

    /**
     * Simulate C = a x b with a plan cut by the configured policy.
     * `products` decides only what is built of the product; the
     * measurements do not depend on it.
     */
    ShardedResult
    multiply(const CsrMatrix &a, const CsrMatrix &b,
             ShardProducts products = ShardProducts::Stacked) const;

    /** Simulate with an explicit, caller-built plan over a's rows. */
    ShardedResult
    multiply(const CsrMatrix &a, const CsrMatrix &b, const ShardPlan &plan,
             ShardProducts products = ShardProducts::Stacked) const;

    const SpArchConfig &config() const { return sim_.config(); }

  private:
    SpArchSimulator sim_;
    ShardPolicy policy_;
    unsigned shards_;
    unsigned threads_;
};

} // namespace driver
} // namespace sparch

#endif // SPARCH_DRIVER_SHARDED_SIMULATOR_HH
