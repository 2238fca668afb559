#include "core/round_stream.hh"

#include <limits>

#include "common/logging.hh"

namespace sparch
{

namespace
{

/**
 * Clear `tasks` and size `port_queues` for ports of the given lengths.
 * Stream positions and operand positions are 32-bit: a round streams
 * each nonzero of A at most once.
 */
template <typename Length>
void
resetStream(std::size_t ports, Length length, std::size_t operand_nnz,
            std::vector<MultTask> &tasks, PortQueues &port_queues)
{
    SPARCH_ASSERT(operand_nnz < std::numeric_limits<std::uint32_t>::max(),
                  "left operand of ", operand_nnz,
                  " nonzeros overflows 32-bit stream positions");
    tasks.clear();
    port_queues.resize(ports);
    std::size_t total = 0;
    for (std::size_t p = 0; p < ports; ++p) {
        port_queues[p].clear();
        port_queues[p].reserve(length(p));
        total += length(p);
    }
    tasks.reserve(total);
}

} // namespace

Index
buildCondensedStream(const CondensedMatrix &condensed,
                     std::span<const Index> columns,
                     std::vector<MultTask> &tasks, PortQueues &port_queues)
{
    for (std::size_t p = 1; p < columns.size(); ++p) {
        SPARCH_ASSERT(columns[p - 1] < columns[p],
                      "condensed columns of a round not ascending at "
                      "port ", p);
    }
    const CsrMatrix &a = condensed.base();
    resetStream(
        columns.size(),
        [&](std::size_t p) { return condensed.columnLength(columns[p]); },
        a.nnz(), tasks, port_queues);
    if (columns.empty())
        return 0;

    const auto n_ports = static_cast<unsigned>(columns.size());
    const auto &row_ptr = a.rowPtr();
    const auto &col_idx = a.colIdx();
    Index visited = 0;
    for (Index row = 0; row < a.rows(); ++row) {
        const Index begin = row_ptr[row];
        const Index len = row_ptr[row + 1] - begin;
        if (len <= columns[0])
            continue;
        ++visited;
        for (unsigned p = 0; p < n_ports && columns[p] < len; ++p) {
            const Index nz = begin + columns[p];
            port_queues[p].push_back(
                static_cast<std::uint32_t>(tasks.size()));
            tasks.push_back({row, col_idx[nz], nz});
        }
    }
    return visited;
}

void
buildColumnStream(const CsrMatrix &a_csc, std::span<const Index> columns,
                  std::vector<MultTask> &tasks, PortQueues &port_queues)
{
    resetStream(
        columns.size(),
        [&](std::size_t p) { return a_csc.rowNnz(columns[p]); },
        a_csc.nnz(), tasks, port_queues);
    const auto &col_ptr = a_csc.rowPtr();
    const auto &row_idx = a_csc.colIdx();
    for (std::size_t p = 0; p < columns.size(); ++p) {
        const Index k = columns[p];
        for (Index nz = col_ptr[k]; nz < col_ptr[k + 1]; ++nz) {
            port_queues[p].push_back(
                static_cast<std::uint32_t>(tasks.size()));
            tasks.push_back({row_idx[nz], k, nz});
        }
    }
}

} // namespace sparch
