/**
 * @file
 * Workload descriptions for the batch-simulation driver.
 *
 * A Workload names one SpGEMM problem C = A x B and knows how to
 * materialize its operands. Generation is lazy and cached behind a
 * shared handle: a workload referenced by many grid points (the common
 * case in a config sweep) is generated exactly once, whichever worker
 * thread touches it first, and every copy of the handle sees the same
 * matrices. All generators take explicit seeds, so a workload is a
 * pure value: the same description always yields bit-identical
 * operands, which is what makes parallel batch runs reproducible.
 *
 * Factories cover the repository's workload families: the 20-matrix
 * proxy suite of Figs. 11/12, R-MAT sweeps (Fig. 14), raw generator
 * matrices, Matrix Market files, and the compressed-DNN layer of the
 * motivating application.
 */

#ifndef SPARCH_DRIVER_WORKLOAD_HH
#define SPARCH_DRIVER_WORKLOAD_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "matrix/csr.hh"

namespace sparch
{
namespace driver
{

/**
 * CLI-spec provenance of a workload: the `cli::parseWorkloadSpec`
 * text plus the nnz/seed defaults it was parsed (or would parse)
 * under. Factories attach this so a workload can be rebuilt in
 * another process — the multi-process batch executor serializes it
 * into worker task manifests, and `parseWorkloadSpec(text, {nnz,
 * seed})` must reproduce a workload with the same name and cache
 * identity (round-trip tested).
 */
struct WorkloadSpec
{
    /** Spec text in the CLI workload grammar (e.g. "rmat:512x8"). */
    std::string text;
    /** The defaults.nnz the spec was built with (suite specs only). */
    std::uint64_t nnz = 0;
    /** The defaults.seed (generator seed) the spec was built with. */
    std::uint64_t seed = 0;
};

/** A named, lazily materialized SpGEMM operand pair. */
class Workload
{
  public:
    Workload() = default;

    /**
     * @param name       Unique human-readable name.
     * @param make_left  Generates A on first use.
     * @param make_right Generates B; empty means B = A (C = A^2).
     */
    Workload(std::string name, std::function<CsrMatrix()> make_left,
             std::function<CsrMatrix()> make_right = {});

    const std::string &name() const { return name_; }

    /**
     * Cache identity: a string that pins down the exact operands this
     * workload materializes. Names alone are too coarse — two suite
     * workloads at different nnz targets share a name but not a
     * matrix — so factories attach the full generator parameters (and,
     * for Matrix Market files, the file's size and mtime, which makes
     * an edited input invalidate cached results). Defaults to the
     * name when no identity was attached.
     */
    const std::string &identity() const
    {
        return identity_.empty() ? name_ : identity_;
    }

    /** Attach a cache identity; returns *this so factories can chain. */
    Workload &withIdentity(std::string identity);

    /**
     * Attach the CLI spec this workload round-trips through (see
     * WorkloadSpec). Returns *this so factories can chain.
     */
    Workload &withSpec(std::string text, std::uint64_t nnz,
                       std::uint64_t seed);

    /** True when the workload can be rebuilt from a CLI spec. */
    bool hasSpec() const { return !spec_.text.empty(); }

    /** The attached CLI spec; asserts hasSpec(). */
    const WorkloadSpec &spec() const;

    /**
     * Relabel the workload (grid axes that materialize one spec at
     * several scales use this to keep replicate rows tellable apart).
     * Requires an explicit cache identity: identity() falls back to
     * the name, and renaming must never change what a cached result
     * keys on.
     */
    Workload &withName(std::string name);

    /** True once constructed with a generator. */
    bool valid() const { return data_ != nullptr; }

    /**
     * Attach a cheap eager check (e.g. "does the Matrix Market file
     * open and carry the right banner?") that validate() runs.
     * Returns *this so factories can chain it.
     */
    Workload &withValidator(std::function<void()> validator);

    /**
     * Run the attached validator, if any. The CLI spec parser calls
     * this so a workload that cannot possibly materialize — a missing
     * or malformed input file — throws FatalError when it is parsed
     * instead of failing mid-batch on a worker thread.
     */
    void validate() const;

    /** Left operand, generated on first call; thread-safe. */
    const CsrMatrix &left() const;

    /** Right operand; defaults to the left operand (C = A^2). */
    const CsrMatrix &right() const;

    /** True if B is just A (square workload). */
    bool squared() const;

  private:
    struct Data
    {
        std::mutex mutex;
        std::function<CsrMatrix()> make_left;
        std::function<CsrMatrix()> make_right;
        std::function<void()> validator;
        std::optional<CsrMatrix> left;
        std::optional<CsrMatrix> right;
    };

    std::string name_;
    std::string identity_;
    WorkloadSpec spec_;
    std::shared_ptr<Data> data_;
};

/** Proxy for one matrix of the paper's 20-benchmark suite (C = A^2). */
Workload suiteWorkload(const std::string &benchmark_name,
                       std::uint64_t target_nnz,
                       std::uint64_t seed = 42);

/** R-MAT adjacency matrix squared (the Fig. 14 points). */
Workload rmatWorkload(Index vertices, Index edge_factor,
                      std::uint64_t seed);

/** Uniform random matrix squared. */
Workload uniformWorkload(Index rows, Index cols, std::uint64_t nnz,
                         std::uint64_t seed);

/**
 * Matrix Market file squared, named by the file's stem (the cache
 * identity keeps the path). Parsing stays lazy, but the workload
 * carries a validator that probes the file (readable, Matrix Market
 * banner) so a bad path fails when the workload is parsed.
 */
Workload matrixMarketWorkload(const std::string &path);

/**
 * Binary .scsr file squared, named by the file's stem like
 * matrixMarketWorkload. Loading is one readScsr, which checks the
 * structure of the sections; the header is validated (checksummed)
 * when the workload is parsed, and the cache identity pins the header
 * checksum so a re-converted file never serves stale cached results.
 */
Workload scsrWorkload(const std::string &path);

/**
 * One pruned-MLP layer Y = W x X: sparse weights `hidden x hidden` and
 * a sparse activation batch `hidden x batch`, both at `density`
 * (compressed DNN inference, the paper's motivating application).
 */
Workload dnnLayerWorkload(Index hidden, Index batch, double density,
                          std::uint64_t seed);

} // namespace driver
} // namespace sparch

#endif // SPARCH_DRIVER_WORKLOAD_HH
