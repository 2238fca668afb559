#include "driver/sharded_simulator.hh"

#include <algorithm>
#include <future>
#include <span>
#include <vector>

#include "common/logging.hh"
#include "driver/thread_pool.hh"

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

/** Split into (near-)equal row counts. */
std::vector<ShardRange>
rowBalanced(const CsrMatrix &a, unsigned shards)
{
    const std::vector<Index> &rp = a.rowPtr();
    const Index rows = a.rows();
    std::vector<ShardRange> ranges;
    const Index k = std::min<Index>(std::max(shards, 1u), rows);
    for (Index s = 0; s < k; ++s) {
        ShardRange r;
        r.begin = static_cast<Index>(
            static_cast<std::uint64_t>(rows) * s / k);
        r.end = static_cast<Index>(
            static_cast<std::uint64_t>(rows) * (s + 1) / k);
        r.nnz = rp[r.end] - rp[r.begin];
        ranges.push_back(r);
    }
    return ranges;
}

/** Greedy contiguous split targeting equal nonzeros per shard. */
std::vector<ShardRange>
nnzBalanced(const CsrMatrix &a, unsigned shards)
{
    // With no nonzeros there is nothing to balance on; fall back to
    // row counts so every shard still gets work.
    if (a.nnz() == 0)
        return rowBalanced(a, shards);

    const std::vector<Index> &rp = a.rowPtr();
    const Index rows = a.rows();
    std::vector<ShardRange> ranges;
    const Index k = std::min<Index>(std::max(shards, 1u), rows);
    std::size_t remaining_nnz = a.nnz();
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
                acc += rp[end + 1] - rp[end];
                ++end;
            }
            r.end = end;
        }
        r.nnz = rp[r.end] - rp[r.begin];
        remaining_nnz -= r.nnz;
        row = r.end;
        ranges.push_back(r);
    }
    return ranges;
}

} // namespace

ShardPlan
ShardPlan::make(ShardPolicy policy, const CsrMatrix &a, unsigned shards)
{
    switch (policy) {
    case ShardPolicy::RowBalanced:
        return ShardPlan(rowBalanced(a, shards));
    case ShardPolicy::NnzBalanced:
        return ShardPlan(nnzBalanced(a, shards));
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
    return multiply(a, b, ShardPlan::make(policy_, a, shards_), products);
}

ShardedResult
ShardedSimulator::multiply(const CsrMatrix &a, const CsrMatrix &b,
                           const ShardPlan &plan,
                           ShardProducts products) const
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
        out.combined = sim_.multiply(
            a, b, stack ? ProductMode::Build : ProductMode::Count);
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
            sim_.multiply(a.rowSlice(r.begin, r.end), b, mode);
    };
    if (threads_ > 1 && plan.size() > 1) {
        ThreadPool pool(std::min<unsigned>(
            threads_, static_cast<unsigned>(plan.size())));
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
        const mem::MemoryConfig &memcfg = config().memory;
        const Bytes peak = memcfg.peakBytesPerCycle();
        // peak == 0 means unlimited bandwidth (the ideal backend):
        // stitching costs only the access latency.
        out.stitchCycles =
            memcfg.accessLatency() +
            (peak > 0 ? (out.stitchBytes + peak - 1) / peak : 0);
    }

    c.cycles = max_cycles + out.stitchCycles;
    c.seconds = static_cast<double>(c.cycles) / config().clockHz;
    c.gflops = c.seconds > 0.0
                   ? static_cast<double>(c.flops) / c.seconds / 1e9
                   : 0.0;
    // Each shard streams through its own accelerator's memory, so
    // the fleet's peak is K memories' worth over the critical path.
    const double peak_bytes =
        static_cast<double>(plan.size()) *
        static_cast<double>(config().memory.peakBytesPerCycle()) *
        static_cast<double>(c.cycles);
    c.bandwidthUtilization =
        peak_bytes > 0.0 ? static_cast<double>(c.bytesTotal) / peak_bytes
                         : 0.0;
    c.prefetchHitRate = hit_weight > 0.0 ? hit_sum / hit_weight : 0.0;

    c.stats.set("shard.count", static_cast<double>(plan.size()));
    c.stats.set("shard.max_cycles", static_cast<double>(max_cycles));
    c.stats.set("shard.stitch_cycles",
                static_cast<double>(out.stitchCycles));
    c.stats.set("shard.stitch_bytes",
                static_cast<double>(out.stitchBytes));
    c.stats.set("shard.nnz_imbalance", plan.nnzImbalance());
    return out;
}

} // namespace driver
} // namespace sparch
