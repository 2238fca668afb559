/**
 * @file
 * The .scsr on-disk binary CSR format: writer, loader and integrity
 * check.
 *
 * Layout (all offsets page-aligned):
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
#include <string>

#include "common/types.hh"
#include "matrix/csr.hh"

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
 * Write m to path in .scsr format. Page 0 is written as zeros first
 * and replaced by the checksummed header once every section is out,
 * so a crashed write leaves a file that readScsrHeader rejects rather
 * than a plausible-looking torso.
 */
ScsrHeader writeScsr(const CsrMatrix &m, const std::string &path);

/**
 * Load an .scsr file into memory: readScsrHeader, then one plain read
 * per section. The structure is checked as it lands (row_ptr starts
 * at 0, ends at nnz and never decreases; columns are in range and
 * strictly ascending within each row), and any fault is fatal with
 * the file named. Values are not re-hashed; verifyScsrContent does
 * that.
 */
CsrMatrix readScsr(const std::string &path);

/**
 * Stream the three sections through FNV-1a and compare the result
 * with the header's content_hash; fatal, naming the file, on a
 * mismatch. Reads the whole file, so it is an explicit integrity
 * pass (`sparch convert --verify`), not part of readScsr.
 */
void verifyScsrContent(const std::string &path);

} // namespace sparch

#endif // SPARCH_MATRIX_SCSR_HH
