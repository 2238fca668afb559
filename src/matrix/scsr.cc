#include "matrix/scsr.hh"

#include <algorithm>
#include <cstring>
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

ScsrWriter::ScsrWriter(const std::string &path, std::uint64_t rows,
                       std::uint64_t cols, std::uint64_t nnz)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc)
{
    if (!out_)
        fatal("scsr: cannot open '", path, "' for writing");
    layout_ = ScsrLayout::of(rows, nnz);
    std::memcpy(header_.magic, kScsrMagic, sizeof(kScsrMagic));
    header_.version = 1;
    header_.index_bytes = sizeof(Index);
    header_.value_bytes = sizeof(Value);
    header_.reserved = 0;
    header_.rows = rows;
    header_.cols = cols;
    header_.nnz = nnz;
    header_.row_ptr_offset = layout_.row_ptr_offset;
    header_.col_idx_offset = layout_.col_idx_offset;
    header_.values_offset = layout_.values_offset;
    header_.file_bytes = layout_.file_bytes;
    // Page 0 is written as zeros now and replaced by the checksummed
    // header in finish(), so a crashed convert leaves a file that
    // readScsrHeader rejects rather than a plausible-looking torso.
    out_.write(kZeroPage, kScsrAlign);
    written_ = kScsrAlign;
}

void
ScsrWriter::appendBytes(const void *data, std::size_t n)
{
    out_.write(static_cast<const char *>(data),
               static_cast<std::streamsize>(n));
    hash_ = fnv1a(data, n, hash_);
    written_ += n;
}

void
ScsrWriter::padTo(std::uint64_t offset)
{
    SPARCH_ASSERT(offset >= written_, "scsr writer padding backwards");
    std::uint64_t gap = offset - written_;
    while (gap > 0) {
        const std::uint64_t n = std::min<std::uint64_t>(gap, kScsrAlign);
        out_.write(kZeroPage, static_cast<std::streamsize>(n));
        gap -= n;
    }
    written_ = offset;
}

void
ScsrWriter::appendRowPtr(std::span<const std::uint64_t> chunk)
{
    SPARCH_ASSERT(!finished_ && col_idx_done_ == 0 && values_done_ == 0,
                  "scsr sections must be appended in order");
    row_ptr_done_ += chunk.size();
    SPARCH_ASSERT(row_ptr_done_ <= header_.rows + 1,
                  "scsr row_ptr section overflow");
    appendBytes(chunk.data(), chunk.size_bytes());
}

void
ScsrWriter::appendColIdx(std::span<const Index> chunk)
{
    SPARCH_ASSERT(!finished_ && values_done_ == 0,
                  "scsr sections must be appended in order");
    if (col_idx_done_ == 0) {
        SPARCH_ASSERT(row_ptr_done_ == header_.rows + 1,
                      "scsr row_ptr section incomplete");
        padTo(layout_.col_idx_offset);
    }
    col_idx_done_ += chunk.size();
    SPARCH_ASSERT(col_idx_done_ <= header_.nnz,
                  "scsr col_idx section overflow");
    appendBytes(chunk.data(), chunk.size_bytes());
}

void
ScsrWriter::appendValues(std::span<const Value> chunk)
{
    SPARCH_ASSERT(!finished_, "scsr writer already finished");
    if (values_done_ == 0) {
        SPARCH_ASSERT(col_idx_done_ == header_.nnz,
                      "scsr col_idx section incomplete");
        padTo(layout_.values_offset);
    }
    values_done_ += chunk.size();
    SPARCH_ASSERT(values_done_ <= header_.nnz,
                  "scsr values section overflow");
    appendBytes(chunk.data(), chunk.size_bytes());
}

ScsrHeader
ScsrWriter::finish()
{
    SPARCH_ASSERT(!finished_, "scsr writer already finished");
    SPARCH_ASSERT(row_ptr_done_ == header_.rows + 1,
                  "scsr row_ptr section incomplete at finish");
    SPARCH_ASSERT(col_idx_done_ == header_.nnz && values_done_ == header_.nnz,
                  "scsr data sections incomplete at finish");
    // An empty matrix never enters appendColIdx/appendValues, so the
    // inter-section pads may still be pending; padTo is monotone and
    // collapses them into one final pad.
    padTo(layout_.file_bytes);
    header_.content_hash = hash_;
    header_.header_checksum = scsrHeaderChecksum(header_);
    out_.seekp(0);
    out_.write(reinterpret_cast<const char *>(&header_), sizeof(header_));
    out_.flush();
    if (!out_)
        fatal("scsr: write to '", path_, "' failed");
    finished_ = true;
    return header_;
}

ScsrHeader
writeScsr(const CsrMatrix &m, const std::string &path)
{
    ScsrWriter w(path, m.rows(), m.cols(), m.nnz());
    std::vector<std::uint64_t> rp(m.rowPtr().begin(), m.rowPtr().end());
    w.appendRowPtr(rp);
    w.appendColIdx(m.colIdx());
    w.appendValues(m.values());
    return w.finish();
}

MappedCsr
MappedCsr::open(const std::string &path)
{
    MappedCsr m;
    m.file_ = MappedFile::openRead(path);
    if (m.file_.size() < kScsrAlign) {
        fatal("scsr: '", path, "' is too short to hold a header (",
              m.file_.size(), " bytes)");
    }
    std::memcpy(&m.header_, m.file_.data(), sizeof(m.header_));
    validateScsrHeader(m.header_, m.file_.size(), path);
    return m;
}

CsrMatrix
MappedCsr::toCsr() const
{
    const auto rp = rowPtr();
    const std::uint64_t base = rp[0];
    const std::uint64_t total = rp[rows()] - base;
    if (total > std::numeric_limits<Index>::max()) {
        fatal("scsr: '", path(), "' holds ", total,
              " nonzeros, too many for one in-memory matrix");
    }
    std::vector<Index> row_ptr(rp.size());
    for (std::size_t i = 0; i < row_ptr.size(); ++i)
        row_ptr[i] = static_cast<Index>(rp[i] - base);
    const auto cols_span = colIdx().subspan(base, total);
    const auto vals_span = values().subspan(base, total);
    return CsrMatrix(rows(), cols(), std::move(row_ptr),
                     {cols_span.begin(), cols_span.end()},
                     {vals_span.begin(), vals_span.end()});
}

void
MappedCsr::verifyContent() const
{
    std::uint64_t h = kFnvOffset;
    h = fnv1a(file_.data() + header_.row_ptr_offset,
              (header_.rows + 1) * sizeof(std::uint64_t), h);
    h = fnv1a(file_.data() + header_.col_idx_offset,
              header_.nnz * sizeof(Index), h);
    h = fnv1a(file_.data() + header_.values_offset,
              header_.nnz * sizeof(Value), h);
    if (h != header_.content_hash) {
        fatal("scsr: '", path(), "' section data does not match the ",
              "header's content hash (corrupt file)");
    }
}

} // namespace sparch
