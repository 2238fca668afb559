#include "core/sparch_simulator.hh"

#include <algorithm>
#include <chrono>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/alloc_hook.hh"
#include "common/logging.hh"
#include "common/profile.hh"
#include "core/condensed_matrix.hh"
#include "core/mata_column_fetcher.hh"
#include "core/multiplier_array.hh"
#include "core/partial_matrix_io.hh"
#include "core/row_prefetcher.hh"
#include "hw/clocked.hh"
#include "hw/merge_tree.hh"

namespace sparch
{

namespace
{

/**
 * Convert the final round's stream to CSR. The writer has checked that
 * it is strictly sorted and inside the product's shape.
 */
CsrMatrix
streamToCsr(const std::vector<StreamElement> &stream, Index rows,
            Index cols)
{
    std::vector<Index> row_ptr(rows + 1, 0);
    std::vector<Index> col_idx;
    std::vector<Value> values;
    col_idx.reserve(stream.size());
    values.reserve(stream.size());
    for (const auto &e : stream) {
        ++row_ptr[coordRow(e.coord) + 1];
        col_idx.push_back(coordCol(e.coord));
        values.push_back(e.value);
    }
    for (Index r = 0; r < rows; ++r)
        row_ptr[r + 1] += row_ptr[r];
    return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

/**
 * All mutable state of one multiply() call: condensed operand views,
 * the merge plan, the clocked pipeline of Fig. 10 and the stored
 * partial results. Each call owns its own context, so concurrent
 * multiplies — e.g. the row-block shards of one SpGEMM fanned across a
 * thread pool — never share state. The operands are borrowed const
 * references and must outlive the context. Every module sizes its
 * own storage when it is built or when a round starts, so the cycle
 * loop never allocates.
 *
 * One statically typed SimKernel ticks the six modules with direct,
 * inlineable calls; SpArchSimulator.GoldenCyclesAndTraffic* pin the
 * cycle counts and traffic it produces.
 */
class RunContext
{
  public:
    RunContext(const SpArchConfig &config, const CsrMatrix &a,
               const CsrMatrix &b, ProductMode mode)
        : config_(config), a_(a), b_(b), mode_(mode), condensed_(a),
          a_base_(0), b_base_(a.storageBytes()),
          partial_bump_(b_base_ + b.storageBytes()),
          mem_(mem::createMemoryModel(config.memory)),
          fetcher_(config, *mem_), prefetcher_(config, *mem_),
          multiplier_(config), partial_fetcher_(config, *mem_),
          tree_(config.mergeTree),
          writer_(config, *mem_, a.rows(), b.cols(),
                  mode == ProductMode::Build),
          kernel_(fetcher_, prefetcher_, multiplier_, partial_fetcher_,
                  tree_, writer_)
    {
        multiplier_.connect(&fetcher_, &prefetcher_, &tree_);
        partial_fetcher_.connectTree(&tree_);
        writer_.connectTree(&tree_);
    }

    /** Execute the whole simulation and collect the result. */
    SpArchResult
    run()
    {
        using ProfClock = std::chrono::steady_clock;
        const bool prof = profile::enabled();
        ProfClock::time_point t0, t1, t2, t3, t4;
        if (prof)
            t0 = ProfClock::now();

        SpArchResult res;
        if (mode_ == ProductMode::Build)
            res.result = CsrMatrix(a_.rows(), b_.cols());

        buildLeaves();
        res.partialMatrices = leaf_columns_.size();
        if (leaf_columns_.empty())
            return res;
        if (prof)
            t1 = ProfClock::now();

        plan_ = buildMergePlan(leaf_weights_, config_.mergeWays(),
                               config_.scheduler);
        if (prof)
            t2 = ProfClock::now();

        for (const std::uint32_t round_id : plan_.rounds) {
            executeRound(round_id);
            ++res.mergeRounds;
        }
        if (prof)
            t3 = ProfClock::now();

        // The round state is dead once the last round has run; free it
        // before the CSR conversion allocates the product.
        releaseRoundScratch();
        res.resultNnz = writer_.emitted(); // the root round runs last
        if (mode_ == ProductMode::Build) {
            res.result = streamToCsr(node_data_.at(plan_.root),
                                     a_.rows(), b_.cols());
        }
        recordMetrics(res);

        if (prof) {
            t4 = ProfClock::now();
            const auto secs = [](ProfClock::time_point from,
                                 ProfClock::time_point to) {
                return std::chrono::duration<double>(to - from).count();
            };
            res.stats.set("profile.leaves_seconds", secs(t0, t1));
            res.stats.set("profile.plan_seconds", secs(t1, t2));
            res.stats.set("profile.rounds_seconds", secs(t2, t3));
            res.stats.set("profile.convert_seconds", secs(t3, t4));
            res.stats.set("profile.total_seconds", secs(t0, t4));
        }
        return res;
    }

  private:
    /**
     * Leaf construction (Section II-B): with condensing, leaves are
     * condensed columns; without, the nonempty original columns of A
     * (plain outer product).
     */
    void
    buildLeaves()
    {
        if (config_.matrixCondensing) {
            leaf_weights_ = condensed_.productWeights(b_);
            for (Index j = 0; j < condensed_.numColumns(); ++j)
                leaf_columns_.push_back(j);
        } else {
            a_csc_ = a_.transpose(); // row k of a_csc = column k of A
            for (Index k = 0; k < a_csc_.rows(); ++k) {
                if (a_csc_.rowNnz(k) == 0)
                    continue;
                leaf_columns_.push_back(k);
                leaf_weights_.push_back(
                    static_cast<std::uint64_t>(a_csc_.rowNnz(k)) *
                    b_.rowNnz(k));
            }
        }
    }

    /** Run one merge round (Section II-C) through the pipeline. */
    void
    executeRound(std::uint32_t round_id)
    {
        const MergeNode &node = plan_.nodes[round_id];

        std::vector<std::uint32_t> fresh, stored;
        for (std::uint32_t c : node.children) {
            (plan_.nodes[c].isLeaf ? fresh : stored).push_back(c);
        }
        // Deterministic port order: fresh columns ascending.
        std::sort(fresh.begin(), fresh.end(),
                  [&](std::uint32_t x, std::uint32_t y) {
                      return plan_.nodes[x].column <
                             plan_.nodes[y].column;
                  });

        // Build the shared left-element stream in Fig. 7 load order,
        // plus each port's queue of stream positions. The containers
        // are members so their capacity carries across rounds. The
        // stream refers to the nonzeros of the operand it reads: A's
        // CSR with condensing, its CSC without.
        std::vector<Index> columns;
        for (const std::uint32_t f : fresh)
            columns.push_back(plan_.nodes[f].column);
        Bytes rowptr_bytes = 0;
        std::span<const Value> a_values;
        if (config_.matrixCondensing) {
            const Index visited_rows = buildCondensedStream(
                condensed_, columns, tasks_, port_queues_);
            rowptr_bytes = static_cast<Bytes>(visited_rows) *
                           bytesPerRowPtr;
            a_values = a_.values();
        } else {
            // Plain outer product: one original column per port. The
            // plan's leaf column is an index into leaf_columns (empty
            // columns were skipped), so translate back.
            for (Index &column : columns)
                column = leaf_columns_[column];
            buildColumnStream(a_csc_, columns, tasks_, port_queues_);
            rowptr_bytes =
                static_cast<Bytes>(fresh.size() + 1) * bytesPerRowPtr;
            a_values = a_csc_.values();
        }
        std::uint64_t total_inputs = tasks_.size();

        // Stored inputs occupy the ports after the fresh ones.
        std::vector<StoredInput> stored_inputs;
        for (std::size_t i = 0; i < stored.size(); ++i) {
            StoredInput in;
            in.data = &node_data_.at(stored[i]);
            in.port = static_cast<unsigned>(fresh.size() + i);
            in.baseAddr = node_addr_.at(stored[i]);
            stored_inputs.push_back(in);
            total_inputs += in.data->size();
        }

        const bool final_round = round_id == plan_.root;
        const Bytes out_base = partial_bump_;
        const Bytes final_rowptr =
            final_round
                ? static_cast<Bytes>(a_.rows() + 1) * bytesPerRowPtr
                : 0;

        // Recycle a spent output buffer for this round's capture; the
        // plan weight bounds the output size, so the capture vector
        // never reallocates inside the cycle loop.
        std::vector<StreamElement> recycle;
        if (!spares_.empty()) {
            recycle = std::move(spares_.back());
            spares_.pop_back();
        }

        const auto active =
            static_cast<unsigned>(fresh.size() + stored.size());
        tree_.startRound(active);
        fetcher_.startRound(&tasks_, &port_queues_, a_base_, rowptr_bytes,
                            kernel_.now());
        prefetcher_.startRound(&tasks_, &b_, b_base_);
        multiplier_.startRound(&tasks_, a_values, &b_, &port_queues_);
        partial_fetcher_.startRound(std::move(stored_inputs));
        writer_.startRound(final_round, out_base, final_rowptr,
                           static_cast<std::size_t>(node.weight),
                           std::move(recycle));

        auto round_done = [&](Cycle now) {
            return multiplier_.done() && partial_fetcher_.done() &&
                   writer_.drained(now);
        };
        // Generous bound: a healthy round moves a handful of elements
        // per cycle; hitting this limit means deadlock. A nonzero
        // deadlockCycleCap overrides the derived bound (a liveness
        // knob only — completed runs do not depend on it).
        const Cycle max_cycles =
            kernel_.now() +
            (config_.deadlockCycleCap > 0
                 ? config_.deadlockCycleCap
                 : 100000 + 200 * (total_inputs + node.weight + 1));
#if SPARCH_DCHECK_IS_ON
        const std::uint64_t allocs_before =
            allochook::counter().load(std::memory_order_relaxed);
#endif
        if (!kernel_.run(round_done, max_cycles)) {
            panic("sparch: merge round ", round_id,
                  " deadlocked (inputs=", total_inputs, ")");
        }
#if SPARCH_DCHECK_IS_ON
        if (allochook::strict().load(std::memory_order_relaxed)) {
            const std::uint64_t allocs =
                allochook::counter().load(std::memory_order_relaxed) -
                allocs_before;
            if (allocs != 0) {
                panic("sparch: ", allocs, " heap allocation(s) inside "
                      "the steady-state cycle loop of round ",
                      round_id);
            }
        }
#endif

        node_data_[round_id] = writer_.takeCaptured();
        node_addr_[round_id] = out_base;
        partial_bump_ +=
            static_cast<Bytes>(writer_.emitted()) * bytesPerElement;

        // Children are fully consumed; recycle their buffers.
        for (std::uint32_t c : stored) {
            auto it = node_data_.find(c);
            if (it != node_data_.end()) {
                spares_.push_back(std::move(it->second));
                node_data_.erase(it);
            }
            node_addr_.erase(c);
        }
    }

    /** Free the per-round scratch and the modules' round state. */
    void
    releaseRoundScratch()
    {
        fetcher_.releaseRound();
        prefetcher_.releaseRound();
        decltype(tasks_)().swap(tasks_);
        decltype(port_queues_)().swap(port_queues_);
        decltype(spares_)().swap(spares_);
    }

    /** Fill in timings, traffic and module statistics. */
    void
    recordMetrics(SpArchResult &res)
    {
        res.cycles = kernel_.now();
        res.seconds = static_cast<double>(res.cycles) / config_.clockHz;
        res.multiplies = multiplier_.multiplies();
        res.additions = tree_.additions() + writer_.additions();
        res.flops = 2 * res.multiplies;
        res.gflops = res.seconds > 0.0
                         ? static_cast<double>(res.flops) /
                               res.seconds / 1e9
                         : 0.0;

        res.bytesMatA = mem_->streamBytes(DramStream::MatA);
        res.bytesMatB = mem_->streamBytes(DramStream::MatB);
        res.bytesPartialRead =
            mem_->streamBytes(DramStream::PartialRead);
        res.bytesPartialWrite =
            mem_->streamBytes(DramStream::PartialWrite);
        res.bytesFinalWrite =
            mem_->streamBytes(DramStream::FinalWrite);
        res.bytesTotal = mem_->totalBytes();
        res.bandwidthUtilization = mem_->utilization(res.cycles);
        res.prefetchHitRate = prefetcher_.hitRate();

        kernel_.recordStats(res.stats);
        mem_->recordStats(res.stats);
        res.stats.set("plan.internal_weight",
                      static_cast<double>(plan_.internalWeight()));
        res.stats.set("plan.total_weight",
                      static_cast<double>(plan_.totalWeight()));
        res.stats.set("plan.rounds",
                      static_cast<double>(plan_.rounds.size()));
    }

    const SpArchConfig &config_;
    const CsrMatrix &a_;
    const CsrMatrix &b_;
    const ProductMode mode_;

    // ---- leaf construction (Section II-B) ----
    const CondensedMatrix condensed_;
    CsrMatrix a_csc_; // used only when condensing is off
    std::vector<Index> leaf_columns_;
    std::vector<std::uint64_t> leaf_weights_;
    MergePlan plan_;

    // ---- memory layout ----
    const Bytes a_base_;
    const Bytes b_base_;
    Bytes partial_bump_;

    // ---- the clocked pipeline of Fig. 10 ----
    std::unique_ptr<mem::MemoryModel> mem_;
    MataColumnFetcher fetcher_;
    RowPrefetcher prefetcher_;
    MultiplierArray multiplier_;
    PartialMatrixFetcher partial_fetcher_;
    hw::MergeTree tree_;
    PartialMatrixWriter writer_;
    hw::SimKernel<MataColumnFetcher, RowPrefetcher, MultiplierArray,
                  PartialMatrixFetcher, hw::MergeTree, PartialMatrixWriter>
        kernel_;

    // ---- per-round scratch, reused across rounds ----
    std::vector<MultTask> tasks_;
    PortQueues port_queues_;
    std::vector<std::vector<StreamElement>> spares_;

    /** Stored partial results: node id -> (data, DRAM address). */
    std::unordered_map<std::uint32_t, std::vector<StreamElement>>
        node_data_;
    std::unordered_map<std::uint32_t, Bytes> node_addr_;
};

/** multiply() calls on this thread (multipliesOnThisThread()). */
thread_local std::size_t t_multiplies = 0;

} // namespace

std::size_t
multipliesOnThisThread()
{
    return t_multiplies;
}

SpArchSimulator::SpArchSimulator(const SpArchConfig &config)
    : config_(config)
{
    // The prefetch buffer must be able to hold in-flight rows for the
    // active column fetchers simultaneously, or sibling ports starve
    // each other out of the buffer and the merge tree stalls. The
    // paper's smallest design point (Fig. 17b: 256 lines x 192
    // elements for a 64-way tree) sits exactly at this bound.
    if (config_.rowPrefetcher &&
        config_.prefetchLines < 4ull * config_.mergeWays()) {
        fatal("sparch: prefetch buffer of ", config_.prefetchLines,
              " lines is below the functional minimum of 4 lines per "
              "merge way (", 4ull * config_.mergeWays(), ")");
    }
}

SpArchResult
SpArchSimulator::multiply(const CsrMatrix &a, const CsrMatrix &b,
                          ProductMode mode) const
{
    ++t_multiplies;
    if (a.cols() != b.rows()) {
        fatal("sparch: dimension mismatch ", a.rows(), "x", a.cols(),
              " * ", b.rows(), "x", b.cols());
    }

    if (a.nnz() == 0 || b.nnz() == 0) {
        SpArchResult res;
        if (mode == ProductMode::Build)
            res.result = CsrMatrix(a.rows(), b.cols());
        return res;
    }

    RunContext context(config_, a, b, mode);
    return context.run();
}

} // namespace sparch
