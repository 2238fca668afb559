#include "matrix/scsr.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <limits>
#include <vector>

#include "common/logging.hh"

namespace sparch
{

namespace
{

/** One page of zeros, for padding and the placeholder header page. */
const char kZeroPage[kScsrAlign] = {};

/**
 * Validate a header against the format and (when nonzero) the actual
 * on-disk size. Fatal with the offending file named on any mismatch.
 */
void
validateScsrHeader(const ScsrHeader &h, std::uint64_t actual_bytes,
                   const std::string &path)
{
    if (std::memcmp(h.magic, kScsrMagic, sizeof(kScsrMagic)) != 0)
        fatal("scsr: '", path, "' is not an .scsr file (bad magic)");
    if (h.version != 1)
        fatal("scsr: '", path, "' has unsupported version ", h.version);
    if (h.index_bytes != sizeof(Index) || h.value_bytes != sizeof(Value)) {
        fatal("scsr: '", path, "' uses ", h.index_bytes, "-byte indices / ",
              h.value_bytes, "-byte values; this build expects ",
              sizeof(Index), "/", sizeof(Value));
    }
    if (h.header_checksum != scsrHeaderChecksum(h))
        fatal("scsr: '", path, "' header checksum mismatch (corrupt file)");
    constexpr std::uint64_t index_max = std::numeric_limits<Index>::max();
    if (h.rows > index_max || h.cols > index_max) {
        fatal("scsr: '", path, "' dimensions ", h.rows, " x ", h.cols,
              " exceed the ", index_max, " limit of 32-bit indices");
    }
    if (h.nnz > h.rows * h.cols) {
        fatal("scsr: '", path, "' declares ", h.nnz, " nonzeros for a ",
              h.rows, " x ", h.cols, " matrix");
    }
    const ScsrLayout want = ScsrLayout::of(h.rows, h.nnz);
    if (h.row_ptr_offset != want.row_ptr_offset ||
        h.col_idx_offset != want.col_idx_offset ||
        h.values_offset != want.values_offset ||
        h.file_bytes != want.file_bytes) {
        fatal("scsr: '", path, "' section offsets do not match the ",
              "page-aligned layout for its shape");
    }
    if (actual_bytes != 0 && actual_bytes != h.file_bytes) {
        fatal("scsr: '", path, "' is ", actual_bytes, " bytes but its ",
              "header declares ", h.file_bytes, " (truncated or corrupt)");
    }
}

/**
 * Read and validate the header of the file `in` was opened on,
 * leaving the stream open for the section reads.
 */
ScsrHeader
readHeaderFrom(std::ifstream &in, const std::string &path)
{
    if (!in)
        fatal("scsr: cannot open '", path, "'");
    in.seekg(0, std::ios::end);
    const std::uint64_t actual = static_cast<std::uint64_t>(in.tellg());
    in.seekg(0);
    ScsrHeader h{};
    if (actual < kScsrAlign ||
        !in.read(reinterpret_cast<char *>(&h), sizeof(h))) {
        fatal("scsr: '", path, "' is too short to hold a header (",
              actual, " bytes)");
    }
    validateScsrHeader(h, actual, path);
    return h;
}

/** Read bytes [offset, offset + n) of `in` into dst. Fatal if short. */
void
readSection(std::ifstream &in, std::uint64_t offset, void *dst,
            std::uint64_t n, const std::string &path)
{
    in.seekg(static_cast<std::streamoff>(offset));
    if (!in.read(static_cast<char *>(dst), static_cast<std::streamsize>(n)))
        fatal("scsr: '", path, "' cannot be read at offset ", offset);
}

} // namespace

std::uint64_t
fnv1aFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        fatal("cannot open '", path, "' for hashing");
    std::vector<char> buf(1 << 20);
    std::uint64_t h = kFnvOffset;
    while (in) {
        in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
        h = fnv1a(buf.data(), static_cast<std::size_t>(in.gcount()), h);
    }
    return h;
}

ScsrLayout
ScsrLayout::of(std::uint64_t rows, std::uint64_t nnz)
{
    ScsrLayout l;
    l.row_ptr_offset = kScsrAlign;
    l.col_idx_offset =
        scsrAlignUp(l.row_ptr_offset + (rows + 1) * sizeof(std::uint64_t));
    l.values_offset = scsrAlignUp(l.col_idx_offset + nnz * sizeof(Index));
    l.file_bytes = scsrAlignUp(l.values_offset + nnz * sizeof(Value));
    return l;
}

std::uint64_t
scsrHeaderChecksum(const ScsrHeader &h)
{
    ScsrHeader copy = h;
    copy.header_checksum = 0;
    return fnv1a(&copy, sizeof(copy));
}

ScsrHeader
readScsrHeader(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return readHeaderFrom(in, path);
}

ScsrHeader
writeScsr(const CsrMatrix &m, const std::string &path)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        fatal("scsr: cannot open '", path, "' for writing");
    const ScsrLayout layout = ScsrLayout::of(m.rows(), m.nnz());
    ScsrHeader h{};
    std::memcpy(h.magic, kScsrMagic, sizeof(kScsrMagic));
    h.version = 1;
    h.index_bytes = sizeof(Index);
    h.value_bytes = sizeof(Value);
    h.rows = m.rows();
    h.cols = m.cols();
    h.nnz = m.nnz();
    h.row_ptr_offset = layout.row_ptr_offset;
    h.col_idx_offset = layout.col_idx_offset;
    h.values_offset = layout.values_offset;
    h.file_bytes = layout.file_bytes;

    std::uint64_t written = 0;
    h.content_hash = kFnvOffset;
    const auto padTo = [&](std::uint64_t offset) {
        for (std::uint64_t gap = offset - written; gap > 0;) {
            const std::uint64_t n = std::min<std::uint64_t>(gap, kScsrAlign);
            out.write(kZeroPage, static_cast<std::streamsize>(n));
            gap -= n;
        }
        written = offset;
    };
    const auto append = [&](const void *data, std::size_t n) {
        out.write(static_cast<const char *>(data),
                  static_cast<std::streamsize>(n));
        h.content_hash = fnv1a(data, n, h.content_hash);
        written += n;
    };
    // Page 0 stays zero until every section is out (see scsr.hh).
    padTo(layout.row_ptr_offset);
    const std::vector<std::uint64_t> rp(m.rowPtr().begin(),
                                        m.rowPtr().end());
    append(rp.data(), rp.size() * sizeof(std::uint64_t));
    padTo(layout.col_idx_offset);
    append(m.colIdx().data(), m.colIdx().size() * sizeof(Index));
    padTo(layout.values_offset);
    append(m.values().data(), m.values().size() * sizeof(Value));
    padTo(layout.file_bytes);

    h.header_checksum = scsrHeaderChecksum(h);
    out.seekp(0);
    out.write(reinterpret_cast<const char *>(&h), sizeof(h));
    out.flush();
    if (!out)
        fatal("scsr: write to '", path, "' failed");
    return h;
}

CsrMatrix
readScsr(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const ScsrHeader h = readHeaderFrom(in, path);
    if (h.nnz > std::numeric_limits<Index>::max()) {
        fatal("scsr: '", path, "' holds ", h.nnz,
              " nonzeros, too many for one in-memory matrix");
    }
    const auto rows = static_cast<Index>(h.rows);
    const auto cols = static_cast<Index>(h.cols);

    // Once row_ptr starts at 0, never decreases and ends at nnz, every
    // entry fits Index and indexes col_idx in bounds. It is narrowed
    // through a buffer below glibc's mmap threshold (128 KiB): freeing
    // a section-sized temporary raises that threshold, and the heap
    // the simulation then grows added 7 MB to the peak RSS of a
    // 4-shard roadNet-CA run.
    std::vector<Index> row_ptr(std::size_t{rows} + 1);
    std::vector<std::uint64_t> wide(8192);
    std::uint64_t prev = 0;
    for (std::size_t at = 0; at < row_ptr.size();) {
        const std::size_t n = std::min(wide.size(), row_ptr.size() - at);
        readSection(in, h.row_ptr_offset + at * sizeof(std::uint64_t),
                    wide.data(), n * sizeof(std::uint64_t), path);
        for (std::size_t k = 0; k < n; ++k, ++at) {
            if (at == 0 && wide[k] != 0) {
                fatal("scsr: '", path, "' row_ptr starts at ", wide[k],
                      ", not 0 (corrupt file)");
            }
            if (wide[k] < prev) {
                fatal("scsr: '", path, "' row_ptr decreases after row ",
                      at - 1, " (corrupt file)");
            }
            prev = wide[k];
            row_ptr[at] = static_cast<Index>(prev);
        }
    }
    if (prev != h.nnz) {
        fatal("scsr: '", path, "' row_ptr ends at ", prev, ", not at its ",
              h.nnz, " nonzeros (corrupt file)");
    }

    std::vector<Index> col_idx(h.nnz);
    readSection(in, h.col_idx_offset, col_idx.data(),
                h.nnz * sizeof(Index), path);
    for (Index r = 0; r < rows; ++r) {
        for (Index i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
            if (col_idx[i] >= cols) {
                fatal("scsr: '", path, "' row ", r, " has column ",
                      col_idx[i], " of a ", cols,
                      "-column matrix (corrupt file)");
            }
            if (i > row_ptr[r] && col_idx[i - 1] >= col_idx[i]) {
                fatal("scsr: '", path, "' row ", r, " columns are not ",
                      "strictly ascending (corrupt file)");
            }
        }
    }

    std::vector<Value> values(h.nnz);
    readSection(in, h.values_offset, values.data(), h.nnz * sizeof(Value),
                path);
    return CsrMatrix(rows, cols, std::move(row_ptr), std::move(col_idx),
                     std::move(values));
}

void
verifyScsrContent(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    const ScsrHeader h = readHeaderFrom(in, path);
    std::vector<char> buf(1 << 20);
    std::uint64_t hash = kFnvOffset;
    const auto hashSection = [&](std::uint64_t offset, std::uint64_t bytes) {
        for (std::uint64_t done = 0; done < bytes;) {
            const std::uint64_t n =
                std::min<std::uint64_t>(bytes - done, buf.size());
            readSection(in, offset + done, buf.data(), n, path);
            hash = fnv1a(buf.data(), n, hash);
            done += n;
        }
    };
    hashSection(h.row_ptr_offset, (h.rows + 1) * sizeof(std::uint64_t));
    hashSection(h.col_idx_offset, h.nnz * sizeof(Index));
    hashSection(h.values_offset, h.nnz * sizeof(Value));
    if (hash != h.content_hash) {
        fatal("scsr: '", path, "' section data does not match the ",
              "header's content hash (corrupt file)");
    }
}

} // namespace sparch
