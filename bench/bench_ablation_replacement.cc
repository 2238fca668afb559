/**
 * @file
 * Ablation: buffer replacement policy. Section II-D claims the
 * distance-list-driven policy is "near-optimal" because the access
 * sequence is known ahead of time. This bench quantifies the claim by
 * swapping the ranking function: Belady (the paper's design) vs LRU
 * vs FIFO, at two buffer sizes, over a mixed set of matrices.
 *
 * The policy x matrix grid goes through the batch driver as one
 * cross product; rows aggregate the records per policy.
 */

#include <iostream>

#include "bench/bench_common.hh"
#include "driver/workload.hh"

namespace
{

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    const std::uint64_t target = targetNnz();
    const char *names[] = {"wiki-Vote", "2cubes_sphere", "scircuit",
                           "web-Google"};

    TablePrinter t("Ablation: prefetch-buffer replacement policy "
                   "(Section II-D's near-Belady claim)");
    t.header({"buffer", "policy", "hit rate %", "MatB MB", "GFLOPS"});

    std::vector<driver::Workload> workloads;
    for (const char *name : names)
        workloads.push_back(driver::suiteWorkload(name, target));

    // A single (paper-sized) buffer: small buffers with recency
    // policies thrash via demand refetches and take minutes of
    // simulation, without changing the ranking.
    const std::size_t lines = 1024;
    std::vector<std::pair<std::string, SpArchConfig>> configs;
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::Belady, ReplacementPolicy::Lru,
          ReplacementPolicy::Fifo}) {
        SpArchConfig cfg;
        cfg.prefetchLines = lines;
        cfg.replacement = policy;
        configs.emplace_back(replacementPolicyName(policy), cfg);
    }

    driver::BatchRunner runner = makeRunner();
    runner.addGrid(configs, workloads);
    const std::vector<driver::BatchRecord> records =
        bench::runBatch(runner);

    // addGrid is configuration-major: one contiguous stripe of
    // `workloads.size()` records per policy.
    for (std::size_t p = 0; p < configs.size(); ++p) {
        double hits = 0.0, misses = 0.0, bytes = 0.0;
        double flops = 0.0, seconds = 0.0;
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            const SpArchResult &r =
                records[p * workloads.size() + w].sim;
            hits += r.stats.get("row_prefetcher.hits");
            misses += r.stats.get("row_prefetcher.misses");
            bytes += static_cast<double>(r.bytesMatB);
            flops += static_cast<double>(r.flops);
            seconds += r.seconds;
        }
        t.row({std::to_string(lines) + "x48", configs[p].first,
               TablePrinter::num(100.0 * hits / (hits + misses), 1),
               TablePrinter::num(bytes / 1e6, 3),
               TablePrinter::num(flops / seconds / 1e9)});
    }
    t.print(std::cout);
    std::cout << "expected: Belady >= LRU >= FIFO hit rate, with the "
                 "gap widening as the buffer shrinks\n";
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
