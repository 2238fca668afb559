/**
 * @file
 * Shared per-round data structures of the SpArch pipeline.
 *
 * A merge round (one internal node of the merge plan) consumes up to 64
 * input arrays: "fresh" inputs are condensed columns of the left matrix
 * multiplied on the fly, "stored" inputs are partially merged results
 * read back from DRAM. Fresh inputs share a single left-matrix element
 * stream in the Fig. 7 load order; each element is one MultTask.
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
    Index aRow = 0;       //!< row of the left matrix
    Index bRow = 0;       //!< original column = row of the right matrix
    Value aValue = 0.0;   //!< left element value
    unsigned port = 0;    //!< merge-tree leaf port of its column
    Bytes addr = 0;       //!< DRAM address of the element
};

/** One stored partially merged result feeding a leaf port. */
struct StoredInput
{
    const std::vector<StreamElement> *data = nullptr;
    unsigned port = 0;
    Bytes baseAddr = 0;
};

/**
 * Build the left-element stream of a round's fresh inputs in the
 * Fig. 7 load order: row-major over the selected condensed columns,
 * ascending column within a row. Port p serves condensed column
 * `columns[p]`; its queue receives the stream positions of its
 * elements in order. Condensed column j holds exactly the rows with
 * more than j nonzeros, so the selected columns' row sets are nested:
 * the stream visits the rows of the first (smallest) column, and each
 * such row reaches a prefix of the ports.
 *
 * @param condensed    Condensed view of the left matrix.
 * @param columns      Selected condensed columns, strictly ascending.
 * @param a_base       DRAM base address of the left matrix.
 * @param tasks        Cleared, then filled with the stream.
 * @param port_queues  Resized to one queue per column and filled.
 * @return Left rows the stream visits (each holds an element of it).
 */
Index buildCondensedStream(
    const CondensedMatrix &condensed, std::span<const Index> columns,
    Bytes a_base, std::vector<MultTask> &tasks,
    std::vector<std::vector<std::uint64_t>> &port_queues);

} // namespace sparch

#endif // SPARCH_CORE_ROUND_STREAM_HH
