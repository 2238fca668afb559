/**
 * @file
 * Synthetic sparse-matrix generators.
 *
 * The evaluation matrices in the paper fall into a few structural
 * families: FEM/mesh matrices (banded with local fill: 2cubes_sphere,
 * filter3D, offshore, poisson3Da), road networks (very sparse, near-
 * diagonal), circuits (block structure: scircuit), and social/web graphs
 * (power-law: wiki-Vote, web-Google, cit-Patents). These generators
 * produce structurally matching proxies at arbitrary scale; see
 * README "Benches", substitution 1, for the rationale.
 */

#ifndef SPARCH_MATRIX_GENERATORS_HH
#define SPARCH_MATRIX_GENERATORS_HH

#include <cstdint>

#include "matrix/csr.hh"

namespace sparch
{

/**
 * Uniform random matrix: nnz entries scattered uniformly.
 * Duplicates are merged, so the resulting nnz may be slightly lower.
 */
CsrMatrix generateUniform(Index rows, Index cols, std::uint64_t nnz,
                          std::uint64_t seed);

/**
 * FEM-style banded matrix: a diagonal band of half-width `bandwidth`
 * with per-entry fill probability chosen to hit `avg_row_nnz`, plus the
 * main diagonal. Mimics mesh discretization matrices.
 */
CsrMatrix generateBanded(Index n, Index bandwidth, double avg_row_nnz,
                         std::uint64_t seed);

/**
 * Power-law graph: out-degrees follow a Zipf-like distribution with the
 * given exponent, targets chosen preferentially among low vertex ids.
 * Mimics social/web adjacency matrices.
 */
CsrMatrix generatePowerLaw(Index n, double avg_degree, double exponent,
                           std::uint64_t seed);

/**
 * Block-structured matrix: `n` is divided into blocks of `block_size`;
 * entries fall inside their diagonal block with probability
 * `locality`, elsewhere uniformly. Mimics circuit matrices.
 */
CsrMatrix generateBlockDiagonal(Index n, Index block_size,
                                double avg_row_nnz, double locality,
                                std::uint64_t seed);

/**
 * Road-network-style matrix: each vertex connects to a handful of
 * spatially close vertices (ids within a small window), degree 2..4.
 */
CsrMatrix generateRoadNetwork(Index n, std::uint64_t seed);

} // namespace sparch

#endif // SPARCH_MATRIX_GENERATORS_HH
