/**
 * @file
 * Surrogate-evaluator throughput bench: points per second through
 * dse::SurrogateEvaluator's batched SoA path — the first tier of a
 * surrogate-first sweep (sparch sweep --surrogate).
 *
 * The design target is a million points per second on one core
 * (ISSUE: million-point Fig. 17 grids pre-filtered in about a
 * second); this bench measures it directly. A synthetic SoA of
 * workload stats (SplitMix64-derived, spanning the partial-count and
 * density regimes the suite workloads produce) is scored by a panel
 * of Fig. 17-style configurations: single-threaded first — that
 * number is the gate — then fanned config-parallel across the
 * ThreadPool the way the CLI's --surrogate sweep does, to report
 * scaling.
 *
 * Knobs: SPARCH_BENCH_SURROGATE_POINTS (stats entries, default
 * 100000), SPARCH_BENCH_REPS (repetitions, default 5; median
 * reported). Below 1e6 points/s single-threaded the bench fails. With
 * SPARCH_BENCH_JSON=<path> the result is written as one
 * BENCH_simulator.json trajectory entry (bench::writeEntry) under the
 * workload "fig17-panel"; points_per_calibration normalizes by the
 * same fixed-work loop as the hot-path bench so CI can gate it
 * machine-independently (scripts/bench_gate.py).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"
#include "dse/surrogate.hh"
#include "dse/workload_stats.hh"

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
splitMix64(std::uint64_t &state)
{
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Uniform double in [lo, hi) from the SplitMix64 stream. */
double
uniformIn(std::uint64_t &state, double lo, double hi)
{
    const double unit =
        static_cast<double>(splitMix64(state) >> 11) * 0x1.0p-53;
    return lo + unit * (hi - lo);
}

/**
 * Synthetic stats spanning the regimes real workloads hit: row counts
 * from hundreds to hundreds of thousands, densities that put the
 * partial count on both sides of the merge width, and condensed
 * partial counts a few times smaller than raw columns.
 */
sparch::dse::WorkloadStatsSoA
syntheticStats(std::size_t n, std::uint64_t seed)
{
    sparch::dse::WorkloadStatsSoA soa;
    std::uint64_t state = seed;
    for (std::size_t i = 0; i < n; ++i) {
        sparch::dse::WorkloadStats s;
        s.rows = uniformIn(state, 1e2, 3e5);
        s.colsA = s.rows;
        s.colsB = s.rows;
        s.nnzA = s.rows * uniformIn(state, 1.5, 40.0);
        s.nnzB = s.rows * uniformIn(state, 1.5, 40.0);
        s.multiplies = s.nnzA * uniformIn(state, 1.0, 60.0);
        const double rc = s.rows * s.colsB;
        s.outputNnz = rc * -std::expm1(-s.multiplies / rc);
        s.partialColumns = uniformIn(state, 1.0, s.colsA);
        s.partialCondensed =
            std::max(1.0, s.partialColumns / uniformIn(state, 2.0, 8.0));
        s.maxColMultiplies = s.multiplies / s.partialColumns;
        soa.push(s);
    }
    return soa;
}

/** The Fig. 17-style config panel (buffer x merger x ablations). */
std::vector<sparch::SpArchConfig>
configPanel()
{
    using sparch::SchedulerKind;
    std::vector<sparch::SpArchConfig> panel;
    for (const std::size_t lines : {256, 1024, 4096}) {
        for (const unsigned layers : {4u, 6u}) {
            sparch::SpArchConfig c;
            c.prefetchLines = lines;
            c.mergeTree.layers = layers;
            panel.push_back(c);
        }
    }
    for (const bool condensing : {false, true}) {
        for (const SchedulerKind sched :
             {SchedulerKind::Huffman, SchedulerKind::Sequential,
              SchedulerKind::Random}) {
            sparch::SpArchConfig c;
            c.matrixCondensing = condensing;
            c.scheduler = sched;
            panel.push_back(c);
        }
    }
    for (const sparch::mem::MemoryKind kind :
         {sparch::mem::MemoryKind::Ddr4,
          sparch::mem::MemoryKind::Lpddr4,
          sparch::mem::MemoryKind::Ideal}) {
        sparch::SpArchConfig c;
        c.memory.kind = kind;
        panel.push_back(c);
    }
    sparch::SpArchConfig no_prefetch;
    no_prefetch.rowPrefetcher = false;
    panel.push_back(no_prefetch);
    return panel;
}

/** Fold a batch into a checksum so no evaluation can be elided. */
double
checksum(const sparch::dse::SurrogateBatch &batch)
{
    double acc = 0.0;
    for (std::size_t i = 0; i < batch.size(); ++i)
        acc += batch.cycles[i] + batch.bytesTotal[i];
    return acc;
}

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    const std::size_t points = static_cast<std::size_t>(
        envU64("SPARCH_BENCH_SURROGATE_POINTS", 100000));
    const auto reps =
        static_cast<unsigned>(envU64("SPARCH_BENCH_REPS", 5));
    if (points == 0 || reps == 0)
        fatal("surrogate bench needs positive points and reps");

    const dse::WorkloadStatsSoA soa =
        syntheticStats(points, 0x5eedf00dULL);
    const std::vector<SpArchConfig> panel = configPanel();
    const double total_points =
        static_cast<double>(points) * static_cast<double>(panel.size());

    // Evaluators are built outside the clock: one per config, exactly
    // as the --surrogate sweep amortizes them across the whole grid.
    std::vector<dse::SurrogateEvaluator> evaluators;
    evaluators.reserve(panel.size());
    for (const SpArchConfig &config : panel)
        evaluators.emplace_back(config);

    // ---- single-threaded: the gated number ----
    std::vector<double> rep_seconds;
    double reference = 0.0;
    {
        dse::SurrogateBatch batch;
        for (unsigned rep = 0; rep < reps; ++rep) {
            const auto start = Clock::now();
            double acc = 0.0;
            for (const dse::SurrogateEvaluator &eval : evaluators) {
                eval.evaluate(soa, batch);
                acc += checksum(batch);
            }
            rep_seconds.push_back(secondsSince(start));
            if (rep == 0)
                reference = acc;
            else if (acc != reference)
                fatal("surrogate bench is nondeterministic");
        }
    }
    std::vector<double> sorted = rep_seconds;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double serial_pps = total_points / median;

    // ---- config-parallel across the ThreadPool ----
    const unsigned threads = benchThreads();
    double threaded_seconds = 0.0;
    {
        driver::ThreadPool pool(threads);
        std::vector<dse::SurrogateBatch> batches(evaluators.size());
        std::vector<std::future<double>> futures;
        const auto start = Clock::now();
        for (std::size_t i = 0; i < evaluators.size(); ++i) {
            futures.push_back(pool.submit([&, i] {
                evaluators[i].evaluate(soa, batches[i]);
                return checksum(batches[i]);
            }));
        }
        double acc = 0.0;
        for (auto &f : futures)
            acc += f.get();
        threaded_seconds = secondsSince(start);
        if (acc != reference)
            fatal("threaded surrogate pass diverged from serial");
    }
    const double threaded_pps = total_points / threaded_seconds;
    const double calib = calibrationSeconds();

    TablePrinter table("surrogate evaluator: batched points/sec "
                       "(first tier of sweep --surrogate)");
    table.header({"metric", "value"});
    table.row({"stats entries", std::to_string(points)});
    table.row({"configs", std::to_string(panel.size())});
    table.row({"points / pass", TablePrinter::num(total_points)});
    table.row({"repetitions", std::to_string(reps)});
    table.row({"median seconds", TablePrinter::num(median)});
    table.row({"Mpoints/s (1 thread)",
               TablePrinter::num(serial_pps / 1e6)});
    table.row({"threads", std::to_string(threads)});
    table.row({"Mpoints/s (threaded)",
               TablePrinter::num(threaded_pps / 1e6)});
    table.row({"calibration seconds", TablePrinter::num(calib)});
    table.row({"points per calibration",
               TablePrinter::num(serial_pps * calib)});
    table.print(std::cout);

    if (serial_pps < 1e6) {
        fatal("surrogate throughput ", serial_pps,
              " points/s is below the 1e6 single-thread design "
              "target");
    }

    const std::vector<Metric> metrics = {
        {"stats_entries", "count", Better::Higher, points},
        {"configs", "count", Better::Higher, panel.size()},
        {"reps", "count", Better::Higher, reps},
        {"median_seconds", "s", Better::Lower, median, rep_seconds},
        {"points_per_second", "points/s", Better::Higher, serial_pps},
        {"threads", "count", Better::Higher, threads},
        {"threaded_points_per_second", "points/s", Better::Higher,
         threaded_pps},
        {"calibration_seconds", "s", Better::Lower, calib},
        // Machine-normalized throughput: points scored per unit of
        // fixed calibration work, the CI gate's metric.
        {"points_per_calibration", "points", Better::Higher,
         serial_pps * calib},
    };
    writeEntry("bench_surrogate", "fig17-panel", metrics);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
