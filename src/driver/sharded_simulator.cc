#include "driver/sharded_simulator.hh"

#include <algorithm>
#include <future>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.hh"
#include "driver/thread_pool.hh"
#include "matrix/scsr.hh"

namespace sparch
{
namespace driver
{

const char *
shardPolicyName(ShardPolicy policy)
{
    switch (policy) {
    case ShardPolicy::RowBalanced:
        return "row-balanced";
    case ShardPolicy::NnzBalanced:
        return "nnz-balanced";
    }
    return "unknown";
}

namespace
{

/**
 * The planning algorithms, generic over the row-pointer element type:
 * Index for an in-memory CsrMatrix, std::uint64_t for the on-disk
 * index of an .scsr file. Both instantiations run the identical
 * arithmetic, so a plan cut from a mapped file matches the plan cut
 * from the materialized matrix element for element.
 */
template <typename IndexT>
std::vector<ShardRange>
rowBalancedRanges(std::span<const IndexT> rp, unsigned shards)
{
    std::vector<ShardRange> ranges;
    const Index rows = static_cast<Index>(rp.size() - 1);
    const Index k = std::min<Index>(std::max(shards, 1u), rows);
    for (Index s = 0; s < k; ++s) {
        ShardRange r;
        r.begin = static_cast<Index>(
            static_cast<std::uint64_t>(rows) * s / k);
        r.end = static_cast<Index>(
            static_cast<std::uint64_t>(rows) * (s + 1) / k);
        r.nnz = static_cast<std::size_t>(rp[r.end] - rp[r.begin]);
        ranges.push_back(r);
    }
    return ranges;
}

template <typename IndexT>
std::vector<ShardRange>
nnzBalancedRanges(std::span<const IndexT> rp, unsigned shards)
{
    // With no nonzeros there is nothing to balance on; fall back to
    // row counts so every shard still gets work.
    const Index rows = static_cast<Index>(rp.size() - 1);
    if (rp[rows] == rp[0])
        return rowBalancedRanges(rp, shards);

    std::vector<ShardRange> ranges;
    const Index k = std::min<Index>(std::max(shards, 1u), rows);
    std::size_t remaining_nnz = static_cast<std::size_t>(rp[rows] - rp[0]);
    Index row = 0;
    for (Index s = 0; s < k; ++s) {
        ShardRange r;
        r.begin = row;
        const Index shards_left = k - s;
        if (shards_left == 1) {
            r.end = rows; // last shard takes the tail
        } else {
            // Aim at the remaining average, but always take at least
            // one row and leave at least one row per later shard.
            const double target =
                static_cast<double>(remaining_nnz) / shards_left;
            const Index max_end = rows - (shards_left - 1);
            std::size_t acc = 0;
            Index end = row;
            while (end < max_end &&
                   (end == row ||
                    static_cast<double>(acc) < target)) {
                acc += static_cast<std::size_t>(rp[end + 1] - rp[end]);
                ++end;
            }
            r.end = end;
        }
        r.nnz = static_cast<std::size_t>(rp[r.end] - rp[r.begin]);
        remaining_nnz -= r.nnz;
        row = r.end;
        ranges.push_back(r);
    }
    return ranges;
}

} // namespace

ShardPlan
ShardPlan::rowBalanced(const CsrMatrix &a, unsigned shards)
{
    return ShardPlan(
        rowBalancedRanges(std::span<const Index>(a.rowPtr()), shards));
}

ShardPlan
ShardPlan::nnzBalanced(const CsrMatrix &a, unsigned shards)
{
    return ShardPlan(
        nnzBalancedRanges(std::span<const Index>(a.rowPtr()), shards));
}

ShardPlan
ShardPlan::make(ShardPolicy policy, const CsrMatrix &a, unsigned shards)
{
    switch (policy) {
    case ShardPolicy::RowBalanced:
        return rowBalanced(a, shards);
    case ShardPolicy::NnzBalanced:
        return nnzBalanced(a, shards);
    }
    fatal("unknown shard policy");
}

ShardPlan
ShardPlan::rowBalanced(std::span<const std::uint64_t> row_ptr,
                       unsigned shards)
{
    return ShardPlan(rowBalancedRanges(row_ptr, shards));
}

ShardPlan
ShardPlan::nnzBalanced(std::span<const std::uint64_t> row_ptr,
                       unsigned shards)
{
    return ShardPlan(nnzBalancedRanges(row_ptr, shards));
}

ShardPlan
ShardPlan::make(ShardPolicy policy, std::span<const std::uint64_t> row_ptr,
                unsigned shards)
{
    switch (policy) {
    case ShardPolicy::RowBalanced:
        return rowBalanced(row_ptr, shards);
    case ShardPolicy::NnzBalanced:
        return nnzBalanced(row_ptr, shards);
    }
    fatal("unknown shard policy");
}

double
ShardPlan::nnzImbalance() const
{
    if (ranges_.empty())
        return 1.0;
    std::size_t total = 0, max_nnz = 0;
    for (const ShardRange &r : ranges_) {
        total += r.nnz;
        max_nnz = std::max(max_nnz, r.nnz);
    }
    if (total == 0)
        return 1.0;
    const double mean =
        static_cast<double>(total) / static_cast<double>(size());
    return static_cast<double>(max_nnz) / mean;
}

ShardedSimulator::ShardedSimulator(const SpArchConfig &config,
                                   ShardPolicy policy, unsigned shards,
                                   unsigned threads)
    : sim_(config), policy_(policy), shards_(shards), threads_(threads)
{}

ShardedResult
ShardedSimulator::multiply(const CsrMatrix &a, const CsrMatrix &b,
                           ShardProducts products) const
{
    const unsigned k =
        shards_ > 0 ? shards_ : ThreadPool::hardwareThreads();
    return multiply(a, b, ShardPlan::make(policy_, a, k), products);
}

namespace
{

/** The left operand as one whole matrix, for the empty-plan path. */
const CsrMatrix &
wholeOf(const CsrMatrix &a)
{
    return a;
}

CsrMatrix
wholeOf(const MappedCsr &a)
{
    return a.toCsr();
}

/**
 * Re-derive every "<stem>hit_rate" statistic from the summed
 * "<stem>hits" and "<stem>misses" beside it (row_prefetcher.hit_rate,
 * dram.row_hit_rate): a ratio does not sum across shards.
 */
void
recomputeHitRates(StatSet &stats)
{
    static constexpr std::string_view kRate = "hit_rate";
    // Overwriting existing names inserts nothing, so the iteration
    // stays valid.
    for (const auto &[name, value] : stats.all()) {
        if (!name.ends_with(kRate))
            continue;
        const std::string stem =
            name.substr(0, name.size() - kRate.size());
        if (!stats.has(stem + "hits") || !stats.has(stem + "misses"))
            continue;
        const double hits = stats.get(stem + "hits");
        const double total = hits + stats.get(stem + "misses");
        stats.set(name, total > 0.0 ? hits / total : 0.0);
    }
}

/**
 * The fan-out/merge engine behind every multiply overload, generic
 * over the left operand: an in-memory CsrMatrix, or a MappedCsr whose
 * rowSlice materializes each shard's block straight from the file so
 * no single allocation ever holds the whole operand.
 */
template <typename Left>
ShardedResult
multiplyPlanned(const SpArchSimulator &sim, const SpArchConfig &config,
                unsigned threads, const Left &a, const CsrMatrix &b,
                const ShardPlan &plan, ShardProducts products)
{
    if (a.cols() != b.rows()) {
        fatal("sharded: dimension mismatch ", a.rows(), "x", a.cols(),
              " * ", b.rows(), "x", b.cols());
    }

    // An empty plan is only legal for a rowless operand; everything
    // else must be a contiguous cover of [0, rows).
    Index covered = 0;
    for (const ShardRange &r : plan.ranges()) {
        if (r.begin != covered || r.end < r.begin) {
            fatal("shard plan is not a contiguous row cover at row ",
                  covered);
        }
        covered = r.end;
    }
    if (covered != a.rows())
        fatal("shard plan covers ", covered, " of ", a.rows(), " rows");

    ShardedResult out;
    out.plan = plan;
    const bool stack = products == ShardProducts::Stacked;

    if (plan.empty()) {
        // A rowless operand: one monolithic call gives the shape.
        out.combined = sim.multiply(
            wholeOf(a), b, stack ? ProductMode::Build : ProductMode::Count);
        return out;
    }

    // ---- fan the row blocks out ----
    const ProductMode mode = products == ShardProducts::None
                                 ? ProductMode::Count
                                 : ProductMode::Build;
    out.shards.resize(plan.size());
    auto run_shard = [&](std::size_t i) {
        const ShardRange &r = plan.ranges()[i];
        out.shards[i] =
            sim.multiply(a.rowSlice(r.begin, r.end), b, mode);
    };
    if (threads > 1 && plan.size() > 1) {
        ThreadPool pool(std::min<unsigned>(
            threads, static_cast<unsigned>(plan.size())));
        std::vector<std::future<void>> futures;
        futures.reserve(plan.size());
        for (std::size_t i = 0; i < plan.size(); ++i)
            futures.push_back(pool.submit([&run_shard, i] {
                run_shard(i);
            }));
        for (auto &f : futures)
            f.get();
    } else {
        for (std::size_t i = 0; i < plan.size(); ++i)
            run_shard(i);
    }

    // ---- deterministic merge in plan order ----
    SpArchResult &c = out.combined;
    Cycle max_cycles = 0;
    double hit_weight = 0.0, hit_sum = 0.0;
    for (const SpArchResult &s : out.shards) {
        c.resultNnz += s.resultNnz;
        max_cycles = std::max(max_cycles, s.cycles);
        c.flops += s.flops;
        c.multiplies += s.multiplies;
        c.additions += s.additions;
        c.bytesMatA += s.bytesMatA;
        c.bytesMatB += s.bytesMatB;
        c.bytesPartialRead += s.bytesPartialRead;
        c.bytesPartialWrite += s.bytesPartialWrite;
        c.bytesFinalWrite += s.bytesFinalWrite;
        c.bytesTotal += s.bytesTotal;
        c.partialMatrices += s.partialMatrices;
        c.mergeRounds += s.mergeRounds;
        hit_weight += static_cast<double>(s.multiplies);
        hit_sum += s.prefetchHitRate *
                   static_cast<double>(s.multiplies);
        c.stats.merge(s.stats);
        out.maxStats.mergeMax(s.stats);
    }
    if (stack) {
        std::vector<const CsrMatrix *> blocks;
        blocks.reserve(plan.size());
        for (const SpArchResult &s : out.shards)
            blocks.push_back(&s.result);
        c.result =
            CsrMatrix::vstack(std::span<const CsrMatrix *const>(blocks));
    }

    // ---- stitch model (see the header) ----
    if (plan.size() > 1) {
        for (const ShardRange &r : plan.ranges())
            out.stitchBytes +=
                static_cast<Bytes>(r.rows() + 1) * bytesPerRowPtr;
        out.stitchBytes +=
            static_cast<Bytes>(a.rows() + 1) * bytesPerRowPtr;
        const mem::MemoryConfig &memcfg = config.memory;
        const Bytes peak = memcfg.peakBytesPerCycle();
        // peak == 0 means unlimited bandwidth (the ideal backend):
        // stitching costs only the access latency.
        out.stitchCycles =
            memcfg.accessLatency() +
            (peak > 0 ? (out.stitchBytes + peak - 1) / peak : 0);
    }

    c.cycles = max_cycles + out.stitchCycles;
    c.seconds = static_cast<double>(c.cycles) / config.clockHz;
    c.gflops = c.seconds > 0.0
                   ? static_cast<double>(c.flops) / c.seconds / 1e9
                   : 0.0;
    // Each shard streams through its own accelerator's memory, so
    // the fleet's peak is K memories' worth over the critical path.
    const double peak_bytes =
        static_cast<double>(plan.size()) *
        static_cast<double>(config.memory.peakBytesPerCycle()) *
        static_cast<double>(c.cycles);
    c.bandwidthUtilization =
        peak_bytes > 0.0 ? static_cast<double>(c.bytesTotal) / peak_bytes
                         : 0.0;
    c.prefetchHitRate = hit_weight > 0.0 ? hit_sum / hit_weight : 0.0;
    recomputeHitRates(c.stats);

    c.stats.set("shard.count", static_cast<double>(plan.size()));
    c.stats.set("shard.max_cycles", static_cast<double>(max_cycles));
    c.stats.set("shard.stitch_cycles",
                static_cast<double>(out.stitchCycles));
    c.stats.set("shard.stitch_bytes",
                static_cast<double>(out.stitchBytes));
    c.stats.set("shard.nnz_imbalance", plan.nnzImbalance());
    return out;
}

} // namespace

ShardedResult
ShardedSimulator::multiply(const CsrMatrix &a, const CsrMatrix &b,
                           const ShardPlan &plan,
                           ShardProducts products) const
{
    return multiplyPlanned(sim_, config(), threads_, a, b, plan,
                           products);
}

ShardedResult
ShardedSimulator::multiply(const MappedCsr &a, const CsrMatrix &b,
                           ShardProducts products) const
{
    const unsigned k =
        shards_ > 0 ? shards_ : ThreadPool::hardwareThreads();
    return multiply(a, b, ShardPlan::make(policy_, a.rowPtr(), k),
                    products);
}

ShardedResult
ShardedSimulator::multiply(const MappedCsr &a, const CsrMatrix &b,
                           const ShardPlan &plan,
                           ShardProducts products) const
{
    return multiplyPlanned(sim_, config(), threads_, a, b, plan,
                           products);
}

} // namespace driver
} // namespace sparch
