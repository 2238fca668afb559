/**
 * @file
 * Shared helpers for the benchmark harness.
 *
 * Every bench regenerates one table or figure of the paper's
 * evaluation. Workload scale is controlled by SPARCH_BENCH_NNZ
 * (target nonzeros per benchmark matrix, default 60000): the paper's
 * SuiteSparse matrices are replaced by structural proxies at that
 * scale (DESIGN.md section 2, substitution 1), so *shapes* — who
 * wins, rough factors, where crossovers fall — are the reproduction
 * target, not absolute numbers.
 */

#ifndef SPARCH_BENCH_BENCH_COMMON_HH
#define SPARCH_BENCH_BENCH_COMMON_HH

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <string>
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
 * Parse an unsigned-integer environment knob. A set-but-malformed
 * value ("abc", "12x", "", out of range) aborts loudly: a bench run
 * that silently fell back to the default scale would produce numbers
 * that look valid but measure the wrong workload.
 */
inline std::uint64_t
envU64(const char *name, std::uint64_t fallback)
{
    const char *env = std::getenv(name);
    if (env == nullptr)
        return fallback;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (end == env || *end != '\0' || errno == ERANGE)
        fatal(name, "='", env, "' is not an unsigned integer");
    return v;
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
 * the same grid (the CI cli-smoke job does exactly that).
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

/**
 * Dump a batch's records as JSON when SPARCH_BENCH_JSON names a path.
 * The shared JsonWriter (json_writer.hh) also backs bench_hotpath's
 * BENCH_simulator.json entries, so scripts/bench_trajectory.sh can
 * parse every bench's output with one schema. Unlike the best-effort
 * CSV dump, an unwritable path aborts: a perf-trajectory run whose
 * output silently vanished would be mistaken for a missing data point.
 */
inline void
maybeWriteJson(const std::vector<driver::BatchRecord> &records)
{
    const char *path = std::getenv("SPARCH_BENCH_JSON");
    if (path == nullptr)
        return;
    if (path[0] == '\0')
        fatal("SPARCH_BENCH_JSON is set but empty; give it a path");
    JsonWriter json;
    json.beginObject();
    json.field("schema", "sparch-bench-records-v1");
    json.key("records");
    json.beginArray();
    for (const driver::BatchRecord &r : records) {
        json.beginObject();
        json.field("id", static_cast<std::uint64_t>(r.id));
        json.field("config", r.configLabel);
        json.field("workload", r.workloadName);
        json.field("seed", r.seed);
        json.field("shards", r.shards);
        json.field("cycles", r.sim.cycles);
        json.field("seconds", r.sim.seconds);
        json.field("flops", r.sim.flops);
        json.field("bytes_total", r.sim.bytesTotal);
        json.field("multiplies", r.sim.multiplies);
        json.field("additions", r.sim.additions);
        json.field("result_nnz", static_cast<std::uint64_t>(r.resultNnz));
        json.endObject();
    }
    json.endArray();
    json.endObject();
    std::ofstream out(path);
    if (!out)
        fatal("SPARCH_BENCH_JSON: cannot write '", path, "'");
    out << json.str() << "\n";
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
 * (scripts/bench_trajectory.sh, ci.yml perf-smoke). One ~50 ms sample
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

/** The shared "machine" block of a trajectory JSON entry. */
inline void
writeMachineBlock(JsonWriter &json)
{
    json.key("machine");
    json.beginObject();
    json.field("host", hostName());
    json.field("cpu", cpuModel());
    json.field("hardware_threads",
               driver::ThreadPool::hardwareThreads());
    json.field("compiler", __VERSION__);
    json.endObject();
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
