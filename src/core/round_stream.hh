/**
 * @file
 * The left-element stream of a merge round (Section II-C, Fig. 7).
 *
 * A merge round (one internal node of the merge plan) consumes up to 64
 * input arrays: "fresh" inputs are columns of the left matrix
 * multiplied on the fly, "stored" inputs are partially merged results
 * read back from DRAM. Fresh inputs share one left-element stream, and
 * each fresh port keeps a queue of the stream positions of its
 * elements.
 *
 * A stream entry refers to a nonzero of the operand the round streams
 * from instead of copying it: with condensing, A's CSR arrays (the
 * condensed format is "a different view of the same data"); without,
 * the CSC arrays of A. Its value is that operand's values()[nz] and
 * its DRAM address is base + nz x bytesPerElement, so the element's
 * layout in DRAM is the operand's. The port of an entry is the queue
 * that holds it. This file holds both stream builders.
 */

#ifndef SPARCH_CORE_ROUND_STREAM_HH
#define SPARCH_CORE_ROUND_STREAM_HH

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hh"
#include "core/condensed_matrix.hh"

namespace sparch
{

/** One left-matrix element awaiting multiplication. */
struct MultTask
{
    Index aRow = 0;        //!< row of the left matrix
    Index bRow = 0;        //!< original column = row of the right matrix
    std::uint32_t nz = 0;  //!< position in the streamed operand's arrays
};

static_assert(sizeof(MultTask) == 12,
              "a stream entry is three 32-bit fields");

/** Per fresh port, the stream positions of its elements in order. */
using PortQueues = std::vector<std::vector<std::uint32_t>>;

/** One stored partially merged result feeding a leaf port. */
struct StoredInput
{
    const std::vector<StreamElement> *data = nullptr;
    unsigned port = 0;
    Bytes baseAddr = 0;
};

/**
 * Build the stream of a round's condensed columns in the Fig. 7 load
 * order: row-major over the selected condensed columns, ascending
 * column within a row. Port p serves condensed column `columns[p]`.
 * Condensed column j holds the j-th nonzero of every row with more
 * than j nonzeros, so the walk over A's rows visits the rows longer
 * than `columns[0]`, and each such row reaches a prefix of the ports.
 * Entries index A's CSR arrays.
 *
 * @param condensed    Condensed view of the left matrix.
 * @param columns      Selected condensed columns, strictly ascending.
 * @param tasks        Cleared, then filled with the stream.
 * @param port_queues  Resized to one queue per column and filled.
 * @return Left rows the stream visits (each holds an element of it).
 */
Index buildCondensedStream(const CondensedMatrix &condensed,
                           std::span<const Index> columns,
                           std::vector<MultTask> &tasks,
                           PortQueues &port_queues);

/**
 * Build the stream of a round of plain outer product (condensing off):
 * port p streams original column `columns[p]` of A, rows ascending,
 * one port after another. Entries index the CSC arrays of A, which
 * are `a_csc` (its row k is column k of A).
 *
 * @param a_csc        The transpose of the left matrix.
 * @param columns      Original columns of A, one per port.
 * @param tasks        Cleared, then filled with the stream.
 * @param port_queues  Resized to one queue per column and filled.
 */
void buildColumnStream(const CsrMatrix &a_csc,
                       std::span<const Index> columns,
                       std::vector<MultTask> &tasks,
                       PortQueues &port_queues);

} // namespace sparch

#endif // SPARCH_CORE_ROUND_STREAM_HH
