/**
 * @file
 * Hot-path microbenchmark: single-simulation wall clock on the default
 * Fig. 12 workload (the 20-matrix suite, C = A^2, Table I config).
 *
 * Unlike the figure benches this measures the *simulator*, not the
 * simulated design: each repetition multiplies every suite matrix
 * serially on one thread through SpArchSimulator::multiply (the exact
 * path every grid point of every sweep takes) and times simulation
 * only — workload generation happens up front, outside the clock.
 *
 * Knobs: SPARCH_BENCH_NNZ (proxy scale, default 60000),
 * SPARCH_BENCH_REPS (repetitions, default 5; the median is reported).
 *
 * With SPARCH_BENCH_JSON=<path> the result is written as one
 * BENCH_simulator.json trajectory entry (bench::writeEntry) under the
 * workload "fig12-suite@nnz<N>". `normalized_cost` divides the median
 * by a fixed-work calibration loop timed in the same process, so two
 * machines of different speed can still be compared ratio-to-ratio —
 * that is what lets CI regression-gate against a trajectory recorded
 * elsewhere (scripts/bench_gate.py, .github/workflows/ci.yml
 * perf-smoke).
 */

#include <algorithm>
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.hh"

namespace
{

using Clock = std::chrono::steady_clock;

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    const std::uint64_t target = targetNnz();
    const auto reps =
        static_cast<unsigned>(envU64("SPARCH_BENCH_REPS", 5));
    if (reps == 0)
        fatal("SPARCH_BENCH_REPS=0: need at least one repetition");

    // Generate the whole suite up front; the clock only ever sees
    // SpArchSimulator::multiply.
    std::vector<std::string> names;
    std::vector<CsrMatrix> matrices;
    for (const BenchmarkSpec &spec : benchmarkSuite()) {
        names.push_back(spec.name);
        matrices.push_back(suiteMatrix(spec, target));
    }

    const SpArchConfig config{};
    const SpArchSimulator sim(config);

    // One untimed warmup pass: first-touch costs (page faults, the
    // allocator's pools) belong to setup, not to the steady state
    // this bench exists to track.
    Cycle total_cycles = 0;
    std::uint64_t total_nnz_out = 0;
    for (const CsrMatrix &m : matrices) {
        const SpArchResult r = sim.multiply(m, m);
        total_cycles += r.cycles;
        total_nnz_out += r.result.nnz();
    }

    std::vector<double> rep_seconds;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto start = Clock::now();
        Cycle cycles = 0;
        for (const CsrMatrix &m : matrices)
            cycles += sim.multiply(m, m).cycles;
        rep_seconds.push_back(secondsSince(start));
        if (cycles != total_cycles) {
            fatal("hot-path bench is nondeterministic: rep ", rep,
                  " simulated ", cycles, " cycles, warmup ",
                  total_cycles);
        }
    }

    std::vector<double> sorted = rep_seconds;
    std::sort(sorted.begin(), sorted.end());
    const double median = sorted[sorted.size() / 2];
    const double calib = calibrationSeconds();
    const double cycles_per_sec =
        static_cast<double>(total_cycles) / median;

    TablePrinter table("hot path: single-simulation wall clock, "
                       "fig12 suite (serial, 1 thread)");
    table.header({"metric", "value"});
    table.row({"matrices", std::to_string(matrices.size())});
    table.row({"nnz target", std::to_string(target)});
    table.row({"repetitions", std::to_string(reps)});
    table.row({"median seconds", TablePrinter::num(median)});
    table.row({"simulated cycles", std::to_string(total_cycles)});
    table.row({"sim Mcycles/s", TablePrinter::num(cycles_per_sec / 1e6)});
    table.row({"calibration seconds", TablePrinter::num(calib)});
    table.row({"normalized cost", TablePrinter::num(median / calib)});
    table.print(std::cout);

    const std::vector<Metric> metrics = {
        {"median_seconds", "s", Better::Lower, median, rep_seconds},
        {"reps", "count", Better::Higher, reps},
        {"simulated_cycles", "cycles", Better::Lower, total_cycles},
        {"sim_cycles_per_second", "1/s", Better::Higher, cycles_per_sec},
        {"result_nnz", "count", Better::Lower, total_nnz_out},
        {"calibration_seconds", "s", Better::Lower, calib},
        {"normalized_cost", "ratio", Better::Lower, median / calib},
    };
    writeEntry("bench_hotpath", "fig12-suite@nnz" + std::to_string(target),
               metrics);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
