/**
 * @file
 * Reference SpGEMM algorithms, run on the host.
 *
 * spgemmDenseAccumulator() is the golden functional model: `--check`,
 * the tests and the analytic baseline models take the product and its
 * operation counts from it. spgemmHash() is the hash-accumulator
 * method of MKL and cuSPARSE (Section IV); mklProxy() times it on the
 * host.
 */

#ifndef SPARCH_MATRIX_REFERENCE_SPGEMM_HH
#define SPARCH_MATRIX_REFERENCE_SPGEMM_HH

#include <cstdint>

#include "matrix/csr.hh"

namespace sparch
{

/** Operation counts gathered while running a reference algorithm. */
struct SpgemmCounts
{
    /** Scalar multiplications (the paper's M). */
    std::uint64_t multiplies = 0;
    /** Scalar additions (merges of same-coordinate products). */
    std::uint64_t additions = 0;
    /** Output nonzeros. */
    std::uint64_t outputNnz = 0;
};

/**
 * Gustavson row-wise SpGEMM with a dense accumulator (SPA). The fastest
 * correct reference; used as the golden model in tests.
 */
CsrMatrix spgemmDenseAccumulator(const CsrMatrix &a, const CsrMatrix &b,
                                 SpgemmCounts *counts = nullptr);

/**
 * Gustavson row-wise SpGEMM with a per-row hash accumulator, the
 * algorithmic class of MKL's mkl_sparse_spmm and cuSPARSE csrgemm.
 */
CsrMatrix spgemmHash(const CsrMatrix &a, const CsrMatrix &b,
                     SpgemmCounts *counts = nullptr);

} // namespace sparch

#endif // SPARCH_MATRIX_REFERENCE_SPGEMM_HH
