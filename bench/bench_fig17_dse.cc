/**
 * @file
 * Figure 17: design space exploration on (a) prefetch-buffer line
 * size, (b) prefetch-buffer shape at fixed capacity, (c) comparator
 * array size, and (d) look-ahead FIFO size. The paper's chosen design
 * point is 1024x48 lines, 16x16 arrays, 8192-deep look-ahead; the
 * reproduction target is each sweep's shape (diminishing returns /
 * interior optimum), not absolute numbers.
 *
 * All four sweeps are enqueued into one BatchRunner and simulated in
 * parallel (SPARCH_BENCH_THREADS workers); the tables print in the
 * paper's order afterwards from the id-sorted records.
 */

#include <iostream>
#include <vector>

#include "bench/bench_common.hh"
#include "driver/workload.hh"

namespace
{

using namespace sparch;
using namespace sparch::bench;

/** One Fig. 17 panel: a title, a closing remark, and its grid points. */
struct Sweep
{
    const char *title;
    const char *remark;
    std::vector<std::size_t> ids;
};

void
printSweep(const Sweep &sweep,
           const std::vector<driver::BatchRecord> &records)
{
    TablePrinter t(sweep.title);
    t.header({"config", "GFLOPS", "DRAM MB", "hit rate %"});
    for (std::size_t id : sweep.ids) {
        const driver::BatchRecord &r = records[id];
        t.row({r.configLabel, TablePrinter::num(r.sim.gflops),
               TablePrinter::num(
                   static_cast<double>(r.sim.bytesTotal) / 1e6, 3),
               TablePrinter::num(100.0 * r.sim.prefetchHitRate, 1)});
    }
    t.print(std::cout);
    std::cout << sweep.remark << "\n";
}

int
runBench()
{
    // Fixed workload for all sweeps: a mid-sized power-law square,
    // generated once and shared by every grid point.
    const driver::Workload workload =
        driver::suiteWorkload("wiki-Vote", targetNnz());

    driver::BatchRunner runner = makeRunner();
    std::vector<Sweep> sweeps;

    {
        Sweep s{"Figure 17(a): prefetch buffer line size "
                "(1024 lines x N elements)",
                "paper: GFLOPS 10.21 -> 10.57, DRAM 216.5 -> "
                "203.4 MB (diminishing returns past 48)\n",
                {}};
        for (std::size_t elems : {24u, 36u, 48u, 60u, 72u, 96u}) {
            SpArchConfig cfg;
            cfg.prefetchLineElems = elems;
            s.ids.push_back(runner.add(
                "1024x" + std::to_string(elems), cfg, workload));
        }
        sweeps.push_back(std::move(s));
    }

    {
        Sweep s{"Figure 17(b): buffer shape at fixed capacity "
                "(49152 elements)",
                "paper: more lines -> less DRAM (202.1 vs 245.7 "
                "MB) but replacement latency caps GFLOPS at "
                "1024-2048 lines\n",
                {}};
        const std::pair<std::size_t, std::size_t> shapes[] = {
            {2048, 24}, {1024, 48}, {512, 96}, {256, 192}};
        for (const auto &[lines, elems] : shapes) {
            SpArchConfig cfg;
            cfg.prefetchLines = lines;
            cfg.prefetchLineElems = elems;
            s.ids.push_back(runner.add(std::to_string(lines) + "x" +
                                           std::to_string(elems),
                                       cfg, workload));
        }
        sweeps.push_back(std::move(s));
    }

    {
        Sweep s{"Figure 17(c): comparator array size",
                "paper: 1.28 -> 10.45 GFLOPS; linear until 8x8, "
                "then memory bound\n",
                {}};
        for (unsigned width : {1u, 2u, 4u, 8u, 16u}) {
            SpArchConfig cfg;
            cfg.mergeTree.mergerWidth = width;
            s.ids.push_back(runner.add(std::to_string(width) + "x" +
                                           std::to_string(width),
                                       cfg, workload));
        }
        sweeps.push_back(std::move(s));
    }

    {
        Sweep s{"Figure 17(d): look-ahead FIFO size",
                "paper: 10.04 -> 10.45 GFLOPS, peak at 8192; "
                "bigger FIFOs pay startup time",
                {}};
        for (std::size_t entries :
             {1024u, 2048u, 4096u, 8192u, 16384u}) {
            SpArchConfig cfg;
            cfg.lookaheadFifo = entries;
            s.ids.push_back(
                runner.add(std::to_string(entries), cfg, workload));
        }
        sweeps.push_back(std::move(s));
    }

    const std::vector<driver::BatchRecord> records =
        bench::runBatch(runner);
    for (const Sweep &sweep : sweeps)
        printSweep(sweep, records);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
