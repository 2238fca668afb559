/**
 * @file
 * The .scsr on-disk binary CSR format and its mmap-backed view.
 *
 * Layout (all offsets page-aligned so any section maps cleanly):
 *
 *   page 0      ScsrHeader (96 bytes) + zero padding to 4096
 *   row_ptr     std::uint64_t[rows + 1]   cumulative nnz, 64-bit-safe
 *   col_idx     Index[nnz]                per row, strictly ascending
 *   values      Value[nnz]
 *
 * Each section starts on a 4096-byte boundary and is zero-padded up
 * to the next; the file itself ends page-aligned. The header carries
 * an FNV-1a hash of the section bytes (content_hash, padding
 * excluded) and of itself (header_checksum, computed with that field
 * zeroed), so truncation and corruption fail loudly instead of
 * producing a quietly wrong matrix.
 *
 * The format is little-endian with native-width fields; it is a
 * working format for this machine family, not an archival one.
 */

#ifndef SPARCH_MATRIX_SCSR_HH
#define SPARCH_MATRIX_SCSR_HH

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <span>
#include <string>

#include "common/types.hh"
#include "matrix/csr.hh"
#include "matrix/mmap_file.hh"

namespace sparch
{

/** Section and file alignment; one x86/ARM base page. */
inline constexpr std::uint64_t kScsrAlign = 4096;

/** x rounded up to the next kScsrAlign boundary. */
inline constexpr std::uint64_t
scsrAlignUp(std::uint64_t x)
{
    return (x + kScsrAlign - 1) & ~(kScsrAlign - 1);
}

/** 64-bit FNV-1a, the format's checksum primitive. */
inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/** Streamed FNV-1a over a whole file's bytes. Fatal if unreadable. */
std::uint64_t fnv1aFile(const std::string &path);

/** First 96 bytes of page 0. Written and read as raw bytes. */
struct ScsrHeader {
    char magic[8];                 ///< "SPARCSR1"
    std::uint32_t version;         ///< format version, currently 1
    std::uint32_t index_bytes;     ///< sizeof(Index) == 4
    std::uint32_t value_bytes;     ///< sizeof(Value) == 8
    std::uint32_t reserved;        ///< 0
    std::uint64_t rows;
    std::uint64_t cols;
    std::uint64_t nnz;
    std::uint64_t row_ptr_offset;  ///< byte offset of the row_ptr section
    std::uint64_t col_idx_offset;  ///< byte offset of the col_idx section
    std::uint64_t values_offset;   ///< byte offset of the values section
    std::uint64_t file_bytes;      ///< total (page-aligned) file size
    std::uint64_t content_hash;    ///< FNV-1a over the three sections
    std::uint64_t header_checksum; ///< FNV-1a over this struct, field zeroed
};

static_assert(sizeof(ScsrHeader) == 96, "header layout is part of the format");

inline constexpr char kScsrMagic[8] = {'S', 'P', 'A', 'R', 'C', 'S', 'R', '1'};

/** Section offsets implied by a matrix shape; the one true layout. */
struct ScsrLayout {
    std::uint64_t row_ptr_offset;
    std::uint64_t col_idx_offset;
    std::uint64_t values_offset;
    std::uint64_t file_bytes;

    static ScsrLayout of(std::uint64_t rows, std::uint64_t nnz);
};

/** header_checksum of h, i.e. FNV-1a with the checksum field zeroed. */
std::uint64_t scsrHeaderChecksum(const ScsrHeader &h);

/**
 * Read and validate the header page of an .scsr file: magic, version,
 * field widths, checksum, offset arithmetic, and declared vs. actual
 * file size. Fatal (loudly, naming the file) on any mismatch. Cheap:
 * reads one page, never the sections.
 */
ScsrHeader readScsrHeader(const std::string &path);

/**
 * Streaming .scsr emitter shared by writeScsr and the Matrix Market
 * converter, so both produce byte-identical files for the same
 * matrix: sections are appended in order (row_ptr, col_idx, values),
 * in as many calls as the producer likes, while the writer keeps the
 * running content hash and inserts the zero padding; finish() seals
 * the file by seeking back and writing the checksummed header.
 */
class ScsrWriter
{
  public:
    ScsrWriter(const std::string &path, std::uint64_t rows,
               std::uint64_t cols, std::uint64_t nnz);

    void appendRowPtr(std::span<const std::uint64_t> chunk);
    void appendColIdx(std::span<const Index> chunk);
    void appendValues(std::span<const Value> chunk);

    /** Pad, write the header, flush. Fatal if any section is short. */
    ScsrHeader finish();

  private:
    void appendBytes(const void *data, std::size_t n);
    void padTo(std::uint64_t offset);

    std::string path_;
    std::ofstream out_;
    ScsrHeader header_{};
    ScsrLayout layout_{};
    std::uint64_t written_ = 0; ///< bytes emitted so far (incl. page 0)
    std::uint64_t hash_ = kFnvOffset;
    std::uint64_t row_ptr_done_ = 0;
    std::uint64_t col_idx_done_ = 0;
    std::uint64_t values_done_ = 0;
    bool finished_ = false;
};

/** Write m to path in .scsr format. */
ScsrHeader writeScsr(const CsrMatrix &m, const std::string &path);

/**
 * Zero-copy view of an .scsr file. open() validates the header (one
 * page of I/O); the sections are read straight out of the mapping,
 * and toCsr() materializes the operand in one pass.
 */
class MappedCsr
{
  public:
    MappedCsr() = default;

    /** Map path and validate its header. Fatal on corruption. */
    static MappedCsr open(const std::string &path);

    const ScsrHeader &
    header() const
    {
        return header_;
    }

    Index
    rows() const
    {
        return static_cast<Index>(header_.rows);
    }

    Index
    cols() const
    {
        return static_cast<Index>(header_.cols);
    }

    std::uint64_t
    nnz() const
    {
        return header_.nnz;
    }

    /** The on-disk 64-bit row index. */
    std::span<const std::uint64_t>
    rowPtr() const
    {
        return {reinterpret_cast<const std::uint64_t *>(
                    file_.data() + header_.row_ptr_offset),
                static_cast<std::size_t>(header_.rows + 1)};
    }

    std::span<const Index>
    colIdx() const
    {
        return {reinterpret_cast<const Index *>(file_.data() +
                                                header_.col_idx_offset),
                static_cast<std::size_t>(header_.nnz)};
    }

    std::span<const Value>
    values() const
    {
        return {reinterpret_cast<const Value *>(file_.data() +
                                                header_.values_offset),
                static_cast<std::size_t>(header_.nnz)};
    }

    /**
     * Materialize the whole matrix. Fatal when it holds more nonzeros
     * than an in-memory CsrMatrix can index.
     */
    CsrMatrix toCsr() const;

    /**
     * Re-hash the mapped sections and compare against the header's
     * content_hash; fatal on mismatch. Reads the whole file, so it is
     * an explicit integrity pass, not part of open().
     */
    void verifyContent() const;

    const std::string &
    path() const
    {
        return file_.path();
    }

  private:
    MappedFile file_;
    ScsrHeader header_{};
};

} // namespace sparch

#endif // SPARCH_MATRIX_SCSR_HH
