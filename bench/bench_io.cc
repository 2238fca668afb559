/**
 * @file
 * I/O microbenchmark: the text-parse, convert and load legs of the
 * file-operand pipeline.
 *
 * Four timings on one generated Matrix Market file:
 *
 *  - istream parse   the pre-from_chars reader loop (operator>> token
 *                    extraction into a CooMatrix, then fromCoo),
 *                    reimplemented here verbatim as the baseline the
 *                    rewrite replaced;
 *  - from_chars parse readMatrixMarketFile, the production reader
 *                    (buffered std::from_chars scan). The ratio of
 *                    the two medians is the recorded text-parse
 *                    speedup. Both legs build their CSR through the
 *                    library's canonical pass (canonicalRows), so a
 *                    change to that pass moves both and shifts the
 *                    ratio: the counting pass that replaced the
 *                    global stable sort made the baseline faster too,
 *                    and entries before and after it do not compare
 *                    on this ratio;
 *  - convert         readMatrixMarketFile + writeScsr, what
 *                    `sparch convert` runs. It is timed after the
 *                    parse legs' matrices are freed, so it starts on
 *                    the same clean heap every repetition;
 *  - load            readScsr on the converted file.
 *
 * Knobs: SPARCH_BENCH_IO_NNZ (generated nonzeros, default 2000000),
 * SPARCH_BENCH_REPS (repetitions, default 3; medians are reported).
 *
 * Below 10 MB/s of convert throughput the bench fails. With
 * SPARCH_BENCH_JSON=<path> the result is written as one
 * BENCH_simulator.json trajectory entry (bench::writeEntry) under the
 * workload "uniform-1pct-square". `convert_mb_per_calibration`
 * multiplies convert throughput by the fixed-work calibration time
 * so two machines can be compared ratio-to-ratio (scripts/
 * bench_gate.py, ci.yml perf-smoke).
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_common.hh"
#include "matrix/coo.hh"
#include "matrix/generators.hh"
#include "matrix/matrix_market.hh"
#include "matrix/scsr.hh"

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * The reader loop the from_chars rewrite replaced: one operator>>
 * extraction per token into a CooMatrix, then canonicalize + fromCoo
 * — kept here, and only here, as the speedup baseline.
 */
sparch::CsrMatrix
istreamRead(const std::string &path)
{
    using namespace sparch;
    std::ifstream in(path);
    if (!in)
        fatal("bench_io: cannot open '", path, "'");
    const MatrixMarketHeader header = readMatrixMarketHeader(in);
    CooMatrix coo(static_cast<Index>(header.rows),
                  static_cast<Index>(header.cols));
    coo.triplets().reserve(header.entries);
    std::uint64_t row = 0, col = 0;
    double value = 0.0;
    for (std::uint64_t i = 0; i < header.entries; ++i) {
        if (!(in >> row >> col >> value))
            fatal("bench_io: truncated at entry ", i);
        coo.add(static_cast<Index>(row - 1),
                static_cast<Index>(col - 1), value);
    }
    coo.canonicalize();
    return CsrMatrix::fromCoo(coo);
}

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

int
runBench()
{
    using namespace sparch;
    using namespace sparch::bench;

    const std::uint64_t nnz = envU64("SPARCH_BENCH_IO_NNZ", 2000000);
    if (nnz == 0)
        fatal("SPARCH_BENCH_IO_NNZ=0: need a positive nnz scale");
    const auto reps =
        static_cast<unsigned>(envU64("SPARCH_BENCH_REPS", 3));
    if (reps == 0)
        fatal("SPARCH_BENCH_REPS=0: need at least one repetition");

    // Square at ~1% density so the file workload shape matches what
    // the sweep pipeline feeds (file workloads compute C = A^2).
    const auto side = static_cast<Index>(std::max(
        1.0, std::ceil(std::sqrt(static_cast<double>(nnz) * 100.0))));
    const CsrMatrix m = generateUniform(side, side, nnz, 42);

    // Scratch names carry the process id: concurrent runs would
    // otherwise overwrite a file the other is reading.
    // sparch-audit: allow(shared-temp-path, names carry the process id)
    const auto tmp = std::filesystem::temp_directory_path();
    const std::string stem =
        (tmp / ("sparch_bench_io." + std::to_string(::getpid()))).string();
    const std::string mtx = stem + ".mtx";
    const std::string scsr = stem + ".scsr";
    writeMatrixMarketFile(m, mtx);
    const double file_mb =
        static_cast<double>(std::filesystem::file_size(mtx)) / 1e6;

    // One untimed warmup of each leg: first touch pays for page cache
    // population and allocator growth, which belong to setup.
    if (istreamRead(mtx).nnz() != m.nnz())
        fatal("bench_io: istream baseline mismatch");
    if (readMatrixMarketFile(mtx).nnz() != m.nnz())
        fatal("bench_io: from_chars reader mismatch");

    std::vector<double> istream_s, from_chars_s, convert_s, load_s;
    for (unsigned rep = 0; rep < reps; ++rep) {
        {
            auto start = Clock::now();
            const CsrMatrix legacy = istreamRead(mtx);
            istream_s.push_back(secondsSince(start));

            start = Clock::now();
            const CsrMatrix fast = readMatrixMarketFile(mtx);
            from_chars_s.push_back(secondsSince(start));
            if (fast.nnz() != legacy.nnz())
                fatal("bench_io: readers disagree on nnz");
        }

        auto start = Clock::now();
        writeScsr(readMatrixMarketFile(mtx), scsr);
        convert_s.push_back(secondsSince(start));

        start = Clock::now();
        const CsrMatrix loaded = readScsr(scsr);
        load_s.push_back(secondsSince(start));
        if (loaded.nnz() != m.nnz())
            fatal("bench_io: load lost entries");
    }

    const double istream_med = medianOf(istream_s);
    const double from_chars_med = medianOf(from_chars_s);
    const double convert_med = medianOf(convert_s);
    const double load_med = medianOf(load_s);
    const double speedup = istream_med / from_chars_med;
    const double convert_mb_s = file_mb / convert_med;
    const double scsr_mb =
        static_cast<double>(std::filesystem::file_size(scsr)) / 1e6;
    const double load_mb_s = scsr_mb / load_med;
    const double calib = calibrationSeconds();

    TablePrinter table("I/O pipeline: parse, convert, load");
    table.header({"metric", "value"});
    table.row({"nnz", std::to_string(m.nnz())});
    table.row({"mtx MB", TablePrinter::num(file_mb)});
    table.row({"scsr MB", TablePrinter::num(scsr_mb)});
    table.row({"repetitions", std::to_string(reps)});
    table.row({"istream parse s", TablePrinter::num(istream_med)});
    table.row({"from_chars parse s", TablePrinter::num(from_chars_med)});
    table.row({"parse speedup", TablePrinter::num(speedup)});
    table.row({"convert s", TablePrinter::num(convert_med)});
    table.row({"convert MB/s", TablePrinter::num(convert_mb_s)});
    table.row({"load s", TablePrinter::num(load_med)});
    table.row({"load MB/s", TablePrinter::num(load_mb_s)});
    table.row({"calibration seconds", TablePrinter::num(calib)});
    table.row({"convert MB/calibration",
               TablePrinter::num(convert_mb_s * calib)});
    table.print(std::cout);

    std::remove(mtx.c_str());
    std::remove(scsr.c_str());
    if (convert_mb_s < 10.0) {
        fatal("convert throughput ", convert_mb_s,
              " MB/s is below the 10 MB/s floor");
    }

    const std::vector<Metric> metrics = {
        {"nnz", "count", Better::Higher, m.nnz()},
        {"mtx_mb", "MB", Better::Lower, file_mb},
        {"scsr_mb", "MB", Better::Lower, scsr_mb},
        {"reps", "count", Better::Higher, reps},
        {"istream_parse_seconds", "s", Better::Lower, istream_med},
        {"from_chars_parse_seconds", "s", Better::Lower, from_chars_med},
        {"parse_speedup_vs_istream", "ratio", Better::Higher, speedup},
        {"convert_seconds", "s", Better::Lower, convert_med},
        {"convert_mb_per_second", "MB/s", Better::Higher, convert_mb_s},
        {"load_seconds", "s", Better::Lower, load_med},
        {"load_mb_per_second", "MB/s", Better::Higher, load_mb_s},
        {"calibration_seconds", "s", Better::Lower, calib},
        {"convert_mb_per_calibration", "MB", Better::Higher,
         convert_mb_s * calib},
    };
    writeEntry("bench_io", "uniform-1pct-square", metrics);
    return 0;
}

} // namespace

int
main()
{
    return sparch::bench::benchMain(runBench);
}
