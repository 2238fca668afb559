#include "core/round_stream.hh"

#include "common/logging.hh"

namespace sparch
{

Index
buildCondensedStream(const CondensedMatrix &condensed,
                     std::span<const Index> columns, Bytes a_base,
                     std::vector<MultTask> &tasks,
                     std::vector<std::vector<std::uint64_t>> &port_queues)
{
    tasks.clear();
    port_queues.resize(columns.size());
    std::size_t total = 0;
    for (std::size_t p = 0; p < columns.size(); ++p) {
        SPARCH_ASSERT(p == 0 || columns[p - 1] < columns[p],
                      "condensed columns of a round not ascending at "
                      "port ", p);
        const Index length = condensed.columnLength(columns[p]);
        port_queues[p].clear();
        port_queues[p].reserve(length);
        total += length;
    }
    if (columns.empty())
        return 0;
    tasks.reserve(total);

    const CsrMatrix &a = condensed.base();
    const auto n_ports = static_cast<unsigned>(columns.size());
    const std::vector<Index> &rows = condensed.columnRows(columns[0]);
    for (const Index row : rows) {
        const Index len = a.rowNnz(row);
        const auto cols = a.rowCols(row);
        const auto vals = a.rowVals(row);
        const Bytes row_addr =
            a_base + static_cast<Bytes>(a.rowPtr()[row]) * bytesPerElement;
        for (unsigned p = 0; p < n_ports && columns[p] < len; ++p) {
            const Index j = columns[p];
            port_queues[p].push_back(tasks.size());
            tasks.push_back({row, cols[j], vals[j], p,
                             row_addr + static_cast<Bytes>(j) *
                                            bytesPerElement});
        }
    }
    return static_cast<Index>(rows.size());
}

} // namespace sparch
