/**
 * @file
 * Shared helpers for the benchmark harness.
 *
 * Every bench regenerates one table or figure of the paper's
 * evaluation. Workload scale is controlled by SPARCH_BENCH_NNZ
 * (target nonzeros per benchmark matrix, default 60000): the paper's
 * SuiteSparse matrices are replaced by structural proxies at that
 * scale (README "Benches", substitution 1), so *shapes* — who
 * wins, rough factors, where crossovers fall — are the reproduction
 * target, not absolute numbers.
 */

#ifndef SPARCH_BENCH_BENCH_COMMON_HH
#define SPARCH_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <array>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "baselines/benchmarks.hh"
#include "bench/json_writer.hh"
#include "check/invariants.hh"
#include "common/logging.hh"
#include "common/table_printer.hh"
#include "core/sparch_simulator.hh"
#include "driver/batch_runner.hh"
#include "driver/thread_pool.hh"

namespace sparch
{
namespace bench
{

/**
 * The main of every bench: run `body` and return its exit status. A
 * FatalError (a bad knob, an unreadable input) prints its message and
 * exits 2, rather than escaping main and aborting the process.
 */
inline int
benchMain(int (*body)())
{
    try {
        return body();
    } catch (const FatalError &e) {
        std::cerr << e.what() << '\n';
        return 2;
    }
}

/**
 * Parse the unsigned integer `text` of the knob `name`. A malformed
 * value ("abc", "12x", "-1", "", out of range) aborts loudly: a bench
 * run that silently fell back to a default would produce numbers that
 * look valid but measure the wrong workload.
 */
inline std::uint64_t
parseU64(const char *name, const std::string &text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    const bool digit =
        !text.empty() && std::isdigit(static_cast<unsigned char>(text[0]));
    if (!digit || *end != '\0' || errno == ERANGE)
        fatal(name, "='", text, "' is not an unsigned integer");
    return v;
}

/** An unsigned-integer environment knob, parsed by parseU64(). */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    return env == nullptr ? fallback : parseU64(name, env);
}

/** Target nonzeros per proxy matrix (SPARCH_BENCH_NNZ). */
inline std::uint64_t
targetNnz(std::uint64_t fallback = 60000)
{
    const std::uint64_t nnz = envU64("SPARCH_BENCH_NNZ", fallback);
    if (nnz == 0)
        fatal("SPARCH_BENCH_NNZ=0: benches need a positive nnz scale");
    return nnz;
}

/**
 * Batch-driver worker threads (SPARCH_BENCH_THREADS, default: all
 * hardware threads). 0 also means all, matching the ThreadPool
 * convention; pass 1 for an explicitly serial run.
 */
inline unsigned
benchThreads()
{
    const auto n = static_cast<unsigned>(envU64("SPARCH_BENCH_THREADS", 0));
    return n > 0 ? n : driver::ThreadPool::hardwareThreads();
}

/** A batch runner sized by benchThreads(). */
inline driver::BatchRunner
makeRunner()
{
    return driver::BatchRunner(benchThreads());
}

/**
 * Run a bench grid on benchThreads() workers. Failed points abort the
 * bench: a figure with silently missing grid points would be worse
 * than no figure.
 */
inline std::vector<driver::BatchRecord>
runBatch(const driver::BatchRunner &runner)
{
    // SPARCH_BENCH_CHECK=1 is the bench-side `--check`: every grid
    // point's product is validated against the reference SpGEMM and
    // its statistics cross-checked (check/invariants.hh).
    if (const char *deep = std::getenv("SPARCH_BENCH_CHECK"))
        check::setDeepChecks(deep[0] != '\0' && deep[0] != '0');

    driver::RunStats stats;
    const std::vector<driver::BatchRecord> records =
        runner.run(nullptr, &stats);
    for (const driver::FailedPoint &f : stats.failures) {
        warn("grid point ", f.id, " (", f.configLabel, " x ",
             f.workloadName, ") failed: ", f.error);
    }
    if (stats.failed != 0)
        fatal(stats.failed, " grid point(s) failed; figure aborted");
    return records;
}

/**
 * Dump a batch's records as CSV when SPARCH_BENCH_CSV names a path.
 * The same writeCsv schema backs the sparch CLI and the result cache,
 * so a bench's grid can be diffed bit for bit against a CLI sweep of
 * the same grid (the ctest case smoke_fig12_sweep does exactly that).
 */
inline void
maybeWriteCsv(const std::vector<driver::BatchRecord> &records)
{
    const char *path = std::getenv("SPARCH_BENCH_CSV");
    if (path == nullptr)
        return;
    std::ofstream out(path);
    if (!out) {
        warn("SPARCH_BENCH_CSV: cannot write '", path, "'");
        return;
    }
    driver::BatchRunner::writeCsv(records, out);
}

/** Seconds elapsed since `start` on the steady clock. */
inline double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/**
 * Fixed-work calibration: a SplitMix64 stream reduction whose cost
 * depends only on the machine, never on the workload scale. Every
 * trajectory-writing bench divides its timing by this so two machines
 * of different speed can be compared ratio-to-ratio, which is what
 * lets CI regression-gate against a trajectory recorded elsewhere
 * (scripts/bench_gate.py, ci.yml perf-smoke). One ~50 ms sample
 * drifts by up to 1.6x between back-to-back runs on a shared VM, so
 * this returns the median of five.
 */
inline double
calibrationSeconds()
{
    constexpr int kSamples = 5;
    std::array<double, kSamples> samples{};
    for (double &sample : samples) {
        const auto start = std::chrono::steady_clock::now();
        std::uint64_t x = 0x9e3779b97f4a7c15ULL, acc = 0;
        for (std::uint64_t i = 0; i < (1ULL << 25); ++i) {
            x += 0x9e3779b97f4a7c15ULL;
            std::uint64_t z = x;
            z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
            z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
            acc ^= z ^ (z >> 31);
        }
        // Fold the accumulator into the timing read so the loop cannot
        // be dead-code eliminated.
        volatile std::uint64_t sink = acc;
        (void)sink;
        sample = secondsSince(start);
    }
    std::nth_element(samples.begin(), samples.begin() + kSamples / 2,
                     samples.end());
    return samples[kSamples / 2];
}

/** First "model name" line of /proc/cpuinfo, or "unknown". */
inline std::string
cpuModel()
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        const auto colon = line.find(':');
        if (line.rfind("model name", 0) == 0 && colon != std::string::npos) {
            const auto begin = line.find_first_not_of(" \t", colon + 1);
            return begin == std::string::npos ? "unknown"
                                              : line.substr(begin);
        }
    }
    return "unknown";
}

inline std::string
hostName()
{
    char buf[256] = {};
    if (gethostname(buf, sizeof(buf) - 1) != 0)
        return "unknown";
    return buf;
}

/** The direction in which a trajectory metric improves. */
enum class Better
{
    Lower,
    Higher,
};

/** One measured value of a bench, as the trajectory records it. */
struct Metric
{
    template <typename T>
    Metric(std::string name, std::string unit, Better better, T value,
           std::vector<double> samples = {})
        : name(std::move(name)), unit(std::move(unit)), better(better),
          value(static_cast<double>(value)), samples(std::move(samples))
    {
    }

    std::string name;
    std::string unit;
    Better better;
    double value;
    /** Per-rep times behind a median; empty for every other metric. */
    std::vector<double> samples;
};

/**
 * Write one trajectory entry when SPARCH_BENCH_JSON names a path: the
 * machine fingerprint plus one record per metric, all under (bench,
 * workload). scripts/bench_gate.py is the one reader: it validates the
 * entry, gates its machine-normalized metrics against the latest
 * BENCH_simulator.json record of the same (bench, workload, metric),
 * and appends it to the trajectory (scripts/bench_trajectory.sh). A
 * workload names its scale when the scale changes the gated metric.
 * An empty or unwritable path aborts: a perf-trajectory run whose
 * output silently vanished would be mistaken for a missing data point.
 */
inline void
writeEntry(const std::string &bench, const std::string &workload,
           const std::vector<Metric> &metrics)
{
    const char *path = std::getenv("SPARCH_BENCH_JSON");
    if (path == nullptr)
        return;
    if (path[0] == '\0')
        fatal("SPARCH_BENCH_JSON is set but empty; give it a path");
    JsonWriter json;
    json.beginObject();
    json.key("machine");
    json.beginObject();
    json.field("host", hostName());
    json.field("cpu", cpuModel());
    json.field("hardware_threads", driver::ThreadPool::hardwareThreads());
    json.field("compiler", __VERSION__);
    json.endObject();
    json.key("records");
    json.beginArray();
    for (const Metric &m : metrics) {
        json.beginObject();
        json.field("bench", bench);
        json.field("workload", workload);
        json.field("metric", m.name);
        json.field("unit", m.unit);
        json.field("better",
                   m.better == Better::Lower ? "lower" : "higher");
        json.field("value", m.value);
        if (!m.samples.empty()) {
            json.key("samples");
            json.beginArray();
            for (const double s : m.samples)
                json.value(s);
            json.endArray();
        }
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::ofstream out(path);
    if (!out || !(out << json.str() << "\n"))
        fatal("SPARCH_BENCH_JSON: cannot write '", path, "'");
}

/** Generate the proxy for one suite entry at the bench scale. */
inline CsrMatrix
suiteMatrix(const BenchmarkSpec &spec, std::uint64_t target)
{
    return generateBenchmark(spec, defaultScale(spec, target));
}

/** Run SpArch (Table I config unless overridden) on C = A^2. */
inline SpArchResult
runSparch(const CsrMatrix &a, const SpArchConfig &config = {})
{
    SpArchSimulator sim(config);
    return sim.multiply(a, a);
}

} // namespace bench
} // namespace sparch

#endif // SPARCH_BENCH_BENCH_COMMON_HH
