/**
 * @file
 * Top-level SpArch cycle simulator (Section III-A).
 *
 * Executes C = A x B on the modelled accelerator: condense A (Section
 * II-B), build the merge plan (Section II-C), then run every merge
 * round through the clocked pipeline of Fig. 10 — column fetcher,
 * row prefetcher (Belady replacement by next use in the round's
 * stream), multiplier array, merge tree, partial matrix
 * fetcher/writer — over the configured memory backend (HBM by default;
 * see src/mem/). The pipeline carries real coordinates and values, so
 * the product is exact and is checked against reference SpGEMM in the
 * integration tests.
 *
 * The product matrix is optional. The writer streams it to DRAM and no
 * timing depends on a host copy, so a caller that reads only the
 * measurements asks for ProductMode::Count: the final round then
 * counts its elements (SpArchResult::resultNnz) instead of keeping
 * them, and every cycle, byte and statistic is the same.
 */

#ifndef SPARCH_CORE_SPARCH_SIMULATOR_HH
#define SPARCH_CORE_SPARCH_SIMULATOR_HH

#include <cstddef>
#include <cstdint>

#include "common/stats.hh"
#include "core/huffman_scheduler.hh"
#include "core/sparch_config.hh"
#include "matrix/csr.hh"

namespace sparch
{

/** Whether a multiply builds its product matrix. */
enum class ProductMode
{
    Build, //!< SpArchResult::result holds the product
    Count, //!< only SpArchResult::resultNnz; result stays empty (0 x 0)
};

/** Everything measured during one simulated SpGEMM. */
struct SpArchResult
{
    /** The product matrix (exact values); empty under ProductMode::Count. */
    CsrMatrix result;
    /** Nonzeros of the product, whether or not it was built. */
    std::size_t resultNnz = 0;

    /** Total simulated cycles. */
    Cycle cycles = 0;
    /** Wall-clock seconds at the configured clock. */
    double seconds = 0.0;
    /** Useful FLOPs: one multiply + one accumulate per product. */
    std::uint64_t flops = 0;
    /** Achieved GFLOP/s. */
    double gflops = 0.0;

    /** DRAM traffic by stream (bytes). */
    Bytes bytesMatA = 0;
    Bytes bytesMatB = 0;
    Bytes bytesPartialRead = 0;
    Bytes bytesPartialWrite = 0;
    Bytes bytesFinalWrite = 0;
    Bytes bytesTotal = 0;

    /** Achieved fraction of peak DRAM bandwidth. */
    double bandwidthUtilization = 0.0;

    /** Operation counts. */
    std::uint64_t multiplies = 0;
    std::uint64_t additions = 0;

    /** Row-prefetcher buffer hit rate. */
    double prefetchHitRate = 0.0;

    /** Condensed columns (= partial matrices before merging). */
    std::uint64_t partialMatrices = 0;
    /** Merge rounds executed. */
    std::uint64_t mergeRounds = 0;

    /** Full module statistics. */
    StatSet stats;
};

/**
 * The SpArch accelerator model.
 *
 * A simulator instance holds only the (immutable) configuration; all
 * per-run mutable state — pipeline modules, HBM model, merge plan and
 * partial-result storage — lives in a RunContext created inside each
 * multiply() call. multiply() is therefore const and re-entrant: one
 * simulator may execute many concurrent multiplies from different
 * threads, which is what lets ShardedSimulator fan the row-block
 * shards of a single SpGEMM across the driver's thread pool.
 */
class SpArchSimulator
{
  public:
    explicit SpArchSimulator(const SpArchConfig &config = SpArchConfig{});

    /**
     * Simulate C = a x b. Throws FatalError on dimension mismatch.
     * Thread-safe: concurrent calls on one instance do not share
     * mutable state. `mode` decides only whether the product matrix
     * is built; the measurements do not depend on it.
     */
    SpArchResult multiply(const CsrMatrix &a, const CsrMatrix &b,
                          ProductMode mode = ProductMode::Build) const;

    const SpArchConfig &config() const { return config_; }

  private:
    SpArchConfig config_;
};

/**
 * SpArchSimulator::multiply() calls made so far on the calling thread;
 * tests read it to see which thread ran a simulation.
 */
std::size_t multipliesOnThisThread();

} // namespace sparch

#endif // SPARCH_CORE_SPARCH_SIMULATOR_HH
