/**
 * @file
 * Matrix Market (.mtx) reader and writer.
 *
 * The paper evaluates on SuiteSparse and SNAP matrices, which are
 * distributed in Matrix Market coordinate format. This reader supports
 * the subset those collections use: `matrix coordinate
 * {real,integer,pattern} {general,symmetric}`. Pattern entries get value
 * 1.0; symmetric matrices are expanded to full storage.
 */

#ifndef SPARCH_MATRIX_MATRIX_MARKET_HH
#define SPARCH_MATRIX_MATRIX_MARKET_HH

#include <cstdint>
#include <iosfwd>
#include <string>

#include "matrix/csr.hh"

namespace sparch
{

/** Value interpretation of the entries (`complex` is unsupported). */
enum class MmField
{
    Real,
    Integer,
    Pattern //!< structure only; entries get value 1.0
};

/** Storage symmetry (`skew-symmetric`/`hermitian` are unsupported). */
enum class MmSymmetry
{
    General,
    Symmetric //!< lower triangle stored; expanded on read
};

/**
 * Everything the banner, comment block and size line of a Matrix
 * Market file declare, fully validated: the header is the supported
 * `matrix coordinate` subset and the dimensions fit the 32-bit Index
 * type. Shared between readMatrixMarket and the workload validator so
 * the two can never disagree about what is acceptable.
 */
struct MatrixMarketHeader
{
    MmField field = MmField::Real;
    MmSymmetry symmetry = MmSymmetry::General;
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    /** Stored entry count (before symmetric expansion). */
    std::uint64_t entries = 0;
};

/**
 * Parse and validate the banner, comments and size line, leaving the
 * stream positioned at the first data entry. Blank (or
 * whitespace-only) lines between the comment block and the size line
 * are tolerated, as real SuiteSparse dumps contain them. Throws
 * FatalError on anything the reader could not load, including
 * dimensions that do not fit Index.
 */
MatrixMarketHeader readMatrixMarketHeader(std::istream &in);

/** Parse a Matrix Market stream. Throws FatalError on malformed input. */
CsrMatrix readMatrixMarket(std::istream &in);

/** Load a Matrix Market file from disk; every error names the file. */
CsrMatrix readMatrixMarketFile(const std::string &path);

/** Write a matrix in `coordinate real general` format. */
void writeMatrixMarket(const CsrMatrix &m, std::ostream &out);

/** Write a Matrix Market file to disk. */
void writeMatrixMarketFile(const CsrMatrix &m, const std::string &path);

} // namespace sparch

#endif // SPARCH_MATRIX_MATRIX_MARKET_HH
