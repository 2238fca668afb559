/**
 * @file
 * Merge-scheduler playground.
 *
 * Condenses a matrix (Section II-B), builds the merge plan under each
 * scheduling policy (Section II-C), and prints the round structure and
 * traffic proxies so the effect of the Huffman tree scheduler is
 * visible directly — including the paper's own Fig. 8 example.
 *
 * The three policies' plans are built concurrently on the driver's
 * work-stealing thread pool; output stays in policy order via futures.
 *
 * Usage: scheduler_playground [rows] [nnz] [ways]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <utility>
#include <vector>

#include "core/condensed_matrix.hh"
#include "core/huffman_scheduler.hh"
#include "driver/thread_pool.hh"
#include "matrix/rmat.hh"

namespace
{

void
describePlan(const char *name, const sparch::MergePlan &plan)
{
    using namespace sparch;
    std::printf("\n%s scheduler: %zu rounds\n", name,
                plan.rounds.size());
    std::printf("  sum of internal node weights (partial-result DRAM "
                "proxy): %llu\n",
                static_cast<unsigned long long>(plan.internalWeight()));
    std::printf("  total weight of all nodes (Fig. 8 metric):        "
                " %llu\n",
                static_cast<unsigned long long>(plan.totalWeight()));
    const std::size_t show = std::min<std::size_t>(5,
                                                   plan.rounds.size());
    for (std::size_t i = 0; i < show; ++i) {
        const MergeNode &node = plan.nodes[plan.rounds[i]];
        unsigned fresh = 0;
        for (auto c : node.children)
            fresh += plan.nodes[c].isLeaf ? 1 : 0;
        std::printf("  round %zu: %zu inputs (%u fresh, %zu stored), "
                    "merged weight %llu\n",
                    i, node.children.size(), fresh,
                    node.children.size() - fresh,
                    static_cast<unsigned long long>(node.weight));
    }
    if (plan.rounds.size() > show)
        std::printf("  ... %zu more rounds\n",
                    plan.rounds.size() - show);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace sparch;

    // First: the paper's Fig. 8 worked example.
    std::printf("== Fig. 8 example: leaves "
                "{15,15,13,12,9,7,3,2,2,2,2,2} ==\n");
    const std::vector<std::uint64_t> fig8 = {15, 15, 13, 12, 9, 7,
                                             3,  2,  2,  2,  2, 2};
    for (unsigned ways : {2u, 4u}) {
        const auto plan =
            buildMergePlan(fig8, ways, SchedulerKind::Huffman);
        std::printf("%u-way Huffman total node weight: %llu "
                    "(paper: %s)\n",
                    ways,
                    static_cast<unsigned long long>(plan.totalWeight()),
                    ways == 2 ? "354" : "228");
    }

    // Then a real matrix.
    const Index rows =
        argc > 1 ? static_cast<Index>(std::strtoul(argv[1], nullptr,
                                                   10))
                 : 4096;
    const Index edge_factor =
        argc > 2 ? static_cast<Index>(std::strtoul(argv[2], nullptr,
                                                   10))
                 : 8;
    const unsigned ways =
        argc > 3 ? static_cast<unsigned>(std::strtoul(argv[3], nullptr,
                                                      10))
                 : 64;

    const CsrMatrix a = rmatGenerate(rows, edge_factor, 7);
    const CondensedMatrix condensed(a);
    std::printf("\n== R-MAT %u vertices x%u: %zu nnz ==\n", rows,
                edge_factor, a.nnz());
    std::printf("original columns: %u, condensed columns: %u "
                "(%.0fx fewer partial matrices)\n",
                a.cols(), condensed.numColumns(),
                static_cast<double>(a.cols()) /
                    condensed.numColumns());

    const std::vector<std::uint64_t> weights =
        condensed.productWeights(a);

    // Build the three plans concurrently, print them in policy order.
    const std::pair<const char *, SchedulerKind> policies[] = {
        {"Huffman", SchedulerKind::Huffman},
        {"Sequential", SchedulerKind::Sequential},
        {"Random", SchedulerKind::Random}};
    driver::ThreadPool pool;
    std::vector<std::future<MergePlan>> plans;
    for (const auto &[name, kind] : policies) {
        plans.push_back(pool.submit([&weights, ways, kind = kind] {
            return buildMergePlan(weights, ways, kind);
        }));
    }
    for (std::size_t i = 0; i < plans.size(); ++i)
        describePlan(policies[i].first, plans[i].get());
    return 0;
}
