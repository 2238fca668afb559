/**
 * @file
 * The 20-matrix evaluation suite (paper Section III-B).
 *
 * The paper evaluates C = A^2 on 20 SuiteSparse/SNAP matrices. The
 * collections are not available offline, so each matrix is recorded
 * here with its true dimensions, nonzero count and structural family,
 * and a synthetic proxy with matching structure is generated at a
 * configurable scale (README "Benches", substitution 1). Passing
 * scale = 1 reproduces the true dimensions; the default bench scale
 * keeps cycle-level simulation tractable on one core.
 */

#ifndef SPARCH_BASELINES_BENCHMARKS_HH
#define SPARCH_BASELINES_BENCHMARKS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "matrix/csr.hh"

namespace sparch
{

/** Structural family of a benchmark matrix. */
enum class MatrixFamily
{
    Fem,      //!< mesh/FEM: banded with local fill
    PowerLaw, //!< social/web/citation graphs: R-MAT
    Road,     //!< road networks: near-diagonal, degree 2-4
    Circuit,  //!< circuits: block-diagonal with global fill
    Mesh      //!< structured mesh/multigrid operators
};

/** One evaluation matrix. */
struct BenchmarkSpec
{
    std::string name;
    Index rows = 0;          //!< true row count (square matrices)
    std::uint64_t nnz = 0;   //!< true nonzero count
    MatrixFamily family = MatrixFamily::Fem;
};

/** The 20 matrices of Figs. 11/12, in the paper's order. */
const std::vector<BenchmarkSpec> &benchmarkSuite();

/** Look up a benchmark by name; throws FatalError if unknown. */
const BenchmarkSpec &findBenchmark(const std::string &name);

/**
 * Generate the structural proxy for a benchmark.
 *
 * @param spec  Which matrix.
 * @param scale Linear row-count scale in (0, 1]; average row degree is
 *              preserved so the SpGEMM behaviour class is unchanged.
 * @param seed  Generator seed.
 */
CsrMatrix generateBenchmark(const BenchmarkSpec &spec, double scale,
                            std::uint64_t seed = 42);

/**
 * Default scale used by the benches: targets roughly `target_nnz`
 * nonzeros so a full cycle simulation takes seconds.
 */
double defaultScale(const BenchmarkSpec &spec,
                    std::uint64_t target_nnz = 60000);

} // namespace sparch

#endif // SPARCH_BASELINES_BENCHMARKS_HH
