/**
 * @file
 * Streaming Matrix Market -> .scsr converter.
 *
 * Converts a GB-scale .mtx in O(buffer-pool) + O(rows) resident
 * memory: a reader thread fills fixed-size byte buffers from a pool,
 * parser workers tokenize them with std::from_chars (mm_scan.hh), and
 * the caller's thread consumes parsed batches in file order through a
 * bounded queue. The file is streamed twice — once to count per-row
 * entries, once to scatter them into an mmapped scratch file — then
 * each row is sorted/merged in place and the sections stream out
 * through ScsrWriter. The result is byte-identical to
 * writeScsr(readMatrixMarketFile(path), out): same duplicate
 * summation order (file order, matching canonicalRows' (column,
 * arrival) order within a row), same explicit-zero dropping, same
 * layout.
 */

#ifndef SPARCH_MATRIX_SCSR_CONVERT_HH
#define SPARCH_MATRIX_SCSR_CONVERT_HH

#include <cstddef>
#include <cstdint>
#include <string>

namespace sparch
{

/** Pipeline shape knobs; defaults suit a few-core desktop. */
struct ConvertOptions {
    /** Size of each read buffer; also the longest legal input line. */
    std::size_t buffer_bytes = 1 << 20;
    /** Buffers in the pool; 2 = classic double buffering. */
    unsigned buffers = 4;
    /** Tokenizer worker threads. */
    unsigned parser_threads = 2;
};

/** What a conversion did, including its memory accounting. */
struct ConvertStats {
    std::uint64_t rows = 0;
    std::uint64_t cols = 0;
    std::uint64_t entries = 0; ///< coordinate lines in the file
    std::uint64_t stored = 0;  ///< entries incl. symmetric mirrors
    std::uint64_t nnz = 0;     ///< after duplicate merge and zero drop
    std::uint64_t bytes_in = 0;
    std::uint64_t bytes_out = 0;
    std::uint64_t chunks = 0; ///< buffers parsed across both passes

    /**
     * Resident-memory accounting, the basis of the O(buffer) claim:
     * pool_bytes covers the byte buffers plus the parsed-entry
     * batches they feed (both sized by the buffer config, not the
     * file); table_bytes covers the O(rows) count/cursor tables. The
     * scratch file is mmapped and paged by the OS, not resident.
     */
    std::uint64_t pool_bytes = 0;
    std::uint64_t table_bytes = 0;
    std::uint64_t scratch_file_bytes = 0;

    double count_seconds = 0;   ///< pass 1: per-row counting
    double scatter_seconds = 0; ///< pass 2: scatter into scratch
    double merge_seconds = 0;   ///< per-row sort + duplicate merge
    double write_seconds = 0;   ///< section stream-out + header seal
};

/**
 * Convert mtx_path to out_path. Accepts exactly what
 * readMatrixMarketFile accepts (real/integer/pattern,
 * general/symmetric) and is fatal, naming the problem, on anything
 * malformed. Leaves no scratch file behind on success.
 */
ConvertStats convertMatrixMarketToScsr(const std::string &mtx_path,
                                       const std::string &out_path,
                                       const ConvertOptions &opts = {});

} // namespace sparch

#endif // SPARCH_MATRIX_SCSR_CONVERT_HH
