/**
 * @file
 * Figure 8: the worked scheduler example. Leaves
 * {15,15,13,12,9,7,3,2,2,2,2,2}; the paper reports total node weights
 * of 365 (2-way sequential as drawn), 354 (2-way Huffman) and 228
 * (4-way Huffman). The two Huffman values are exact reproduction
 * targets; the sequential total depends on the (unpublished) arrival
 * order of the figure, so our FIFO-order variant is reported with
 * that caveat.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "common/table_printer.hh"
#include "core/huffman_scheduler.hh"

namespace
{

int
runBench()
{
    using namespace sparch;

    const std::vector<std::uint64_t> leaves = {15, 15, 13, 12, 9, 7,
                                               3,  2,  2,  2,  2, 2};
    TablePrinter t("Figure 8: scheduler comparison on the worked "
                   "example");
    t.header({"scheduler", "rounds", "internal weight",
              "total node weight", "paper"});
    auto row = [&](const char *name, unsigned ways,
                   SchedulerKind kind, const char *paper) {
        const MergePlan plan = buildMergePlan(leaves, ways, kind);
        t.row({name, std::to_string(plan.rounds.size()),
               std::to_string(plan.internalWeight()),
               std::to_string(plan.totalWeight()), paper});
    };
    row("2-way sequential", 2, SchedulerKind::Sequential,
        "365 (figure's arrival order)");
    row("2-way Huffman", 2, SchedulerKind::Huffman, "354");
    row("4-way Huffman", 4, SchedulerKind::Huffman, "228");
    row("64-way Huffman", 64, SchedulerKind::Huffman, "-");
    t.print(std::cout);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
