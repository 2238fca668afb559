/**
 * @file
 * Tests for the .scsr on-disk format: write/read round trips, the
 * pinned bytes of `sparch convert`, corruption rejection (header and
 * section structure), and workload identities.
 */

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cli/commands.hh"
#include "common/logging.hh"
#include "driver/batch_runner.hh"
#include "driver/result_cache.hh"
#include "driver/sharded_simulator.hh"
#include "driver/workload.hh"
#include "matrix/generators.hh"
#include "matrix/matrix_market.hh"
#include "matrix/scsr.hh"
#include "temp_path.hh"

namespace sparch
{
namespace
{

std::string
writeTempFile(const std::string &name, const std::string &contents)
{
    const std::string path = uniqueTempPath(name);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << contents;
    return path;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << "cannot open " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/** Run `fn`, which must throw a FatalError that names `path`. */
template <typename Fn>
void
expectFatalNaming(Fn &&fn, const std::string &path)
{
    try {
        fn();
        ADD_FAILURE() << "no FatalError for " << path;
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
            << "the error does not name " << path << ": " << e.what();
    }
}

/** Exact (bit-level) CSR equality; almostEqual is too forgiving here. */
void
expectBitIdentical(const CsrMatrix &a, const CsrMatrix &b)
{
    ASSERT_EQ(a.rows(), b.rows());
    ASSERT_EQ(a.cols(), b.cols());
    EXPECT_EQ(a.rowPtr(), b.rowPtr());
    EXPECT_EQ(a.colIdx(), b.colIdx());
    ASSERT_EQ(a.values().size(), b.values().size());
    for (std::size_t i = 0; i < a.values().size(); ++i)
        EXPECT_EQ(std::memcmp(&a.values()[i], &b.values()[i],
                              sizeof(Value)),
                  0)
            << "value " << i << " differs: " << a.values()[i]
            << " vs " << b.values()[i];
}

// ----------------------------------------------------- write / read

TEST(Scsr, WriteThenReadRoundTripsBitIdentically)
{
    const CsrMatrix m = generateUniform(120, 90, 800, 7);
    const std::string path = uniqueTempPath("scsr_roundtrip.scsr");
    const ScsrHeader header = writeScsr(m, path);
    EXPECT_EQ(header.rows, 120u);
    EXPECT_EQ(header.cols, 90u);
    EXPECT_EQ(header.nnz, m.nnz());
    EXPECT_EQ(header.file_bytes % kScsrAlign, 0u);
    EXPECT_EQ(std::filesystem::file_size(path), header.file_bytes);

    expectBitIdentical(readScsr(path), m);
    verifyScsrContent(path); // full re-hash must agree with the header
    std::filesystem::remove(path);
}

TEST(Scsr, WriterIsDeterministic)
{
    const CsrMatrix m = generateUniform(50, 50, 300, 3);
    const std::string p1 = uniqueTempPath("scsr_det_1.scsr");
    const std::string p2 = uniqueTempPath("scsr_det_2.scsr");
    writeScsr(m, p1);
    writeScsr(m, p2);
    EXPECT_EQ(fileBytes(p1), fileBytes(p2));
    std::filesystem::remove(p1);
    std::filesystem::remove(p2);
}

TEST(Scsr, EmptyMatrixRoundTrips)
{
    const CsrMatrix m(4, 5); // 4x5, zero nonzeros
    const std::string path = uniqueTempPath("scsr_empty.scsr");
    writeScsr(m, path);
    const ScsrHeader header = readScsrHeader(path);
    EXPECT_EQ(header.rows, 4u);
    EXPECT_EQ(header.cols, 5u);
    EXPECT_EQ(header.nnz, 0u);
    expectBitIdentical(readScsr(path), m);
    verifyScsrContent(path);
    std::filesystem::remove(path);
}

// ------------------------------------------- `sparch convert` bytes

/**
 * Run `sparch convert --verify` on mtx and return the FNV-1a hash of
 * the .scsr it wrote. The tests pin these hashes: the .scsr bytes are
 * part of the format (header checksums feed workload identities and
 * so every cached result), and the values were captured from the
 * streaming converter this path replaced.
 */
std::uint64_t
convertAndHash(const std::string &mtx, const std::string &scsr)
{
    std::ostringstream out, err;
    EXPECT_EQ(cli::run({"convert", mtx, scsr, "--verify"}, out, err), 0)
        << err.str();
    return fnv1aFile(scsr);
}

TEST(ScsrConvert, MatchesInCoreReadThenWriteByteForByte)
{
    const CsrMatrix m = generateUniform(200, 200, 2500, 19);
    const std::string mtx = uniqueTempPath("scsr_conv.mtx");
    writeMatrixMarketFile(m, mtx);
    const std::string scsr = uniqueTempPath("scsr_conv.scsr");
    EXPECT_EQ(convertAndHash(mtx, scsr), 0x4ac345a1846b7186ULL);
    std::filesystem::remove(mtx);
    std::filesystem::remove(scsr);
}

/** Convert one Matrix Market dialect and return the output's hash. */
std::uint64_t
convertTextAndHash(const std::string &name, const std::string &mtx_text)
{
    const std::string mtx = writeTempFile(name + ".mtx", mtx_text);
    const std::string scsr = uniqueTempPath(name + ".scsr");
    const std::uint64_t hash = convertAndHash(mtx, scsr);
    std::filesystem::remove(mtx);
    std::filesystem::remove(scsr);
    return hash;
}

TEST(ScsrConvert, ExpandsSymmetricMirrors)
{
    EXPECT_EQ(convertTextAndHash(
                  "scsr_sym",
                  "%%MatrixMarket matrix coordinate real symmetric\n"
                  "4 4 4\n"
                  "2 1 1.5\n"
                  "3 3 2.0\n"
                  "4 2 -1.0\n"
                  "1 1 0.5\n"),
              0x667ca2e90d2662b0ULL);
}

TEST(ScsrConvert, PatternEntriesGetUnitValues)
{
    EXPECT_EQ(convertTextAndHash(
                  "scsr_pat",
                  "%%MatrixMarket matrix coordinate pattern general\n"
                  "3 3 3\n"
                  "1 2\n"
                  "3 1\n"
                  "2 2\n"),
              0xdbf52c92929d4888ULL);
}

TEST(ScsrConvert, SumsDuplicatesInFileOrderAndDropsZeros)
{
    // (1,1) cancels to 0.0 and (3,1) is an explicit zero: both must
    // vanish, exactly as CooMatrix::canonicalize drops them.
    EXPECT_EQ(convertTextAndHash(
                  "scsr_dup",
                  "%%MatrixMarket matrix coordinate real general\n"
                  "3 3 6\n"
                  "1 1 2.0\n"
                  "1 1 -2.0\n"
                  "2 3 1.0\n"
                  "2 3 2.5\n"
                  "3 1 0.0\n"
                  "2 1 4.0\n"),
              0x81f58501f5928655ULL);
}

TEST(ScsrConvert, LoadedMatrixMatchesDirectRead)
{
    const CsrMatrix m = generateUniform(80, 80, 600, 23);
    const std::string mtx = uniqueTempPath("scsr_load.mtx");
    writeMatrixMarketFile(m, mtx);
    const std::string scsr = uniqueTempPath("scsr_load.scsr");
    EXPECT_EQ(convertAndHash(mtx, scsr), 0xbcc2d8e0e7daeec2ULL);
    expectBitIdentical(readScsr(scsr), readMatrixMarketFile(mtx));
    std::filesystem::remove(mtx);
    std::filesystem::remove(scsr);
}

TEST(ScsrConvert, RejectsTruncatedAndOverlongInputs)
{
    // The in-core reader is the convert path, so its errors must name
    // the file just as the streaming converter's did.
    const std::string truncated = writeTempFile(
        "scsr_conv_trunc.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n");
    expectFatalNaming([&] { readMatrixMarketFile(truncated); },
                      truncated);
    std::filesystem::remove(truncated);

    const std::string overlong = writeTempFile(
        "scsr_conv_extra.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 1.0\n"
        "2 2 2.0\n");
    expectFatalNaming([&] { readMatrixMarketFile(overlong); }, overlong);
    std::filesystem::remove(overlong);
}

// ------------------------------------------------- corruption paths

class ScsrCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = uniqueTempPath("scsr_corrupt.scsr");
        writeScsr(generateUniform(30, 30, 200, 13), path_);
    }

    void
    TearDown() override
    {
        std::filesystem::remove(path_);
    }

    ScsrHeader
    readRawHeader()
    {
        ScsrHeader h{};
        std::ifstream in(path_, std::ios::binary);
        in.read(reinterpret_cast<char *>(&h), sizeof h);
        EXPECT_TRUE(static_cast<bool>(in));
        return h;
    }

    /** Overwrite the header with h, checksum recomputed (valid). */
    void
    writeRawHeader(ScsrHeader h)
    {
        h.header_checksum = scsrHeaderChecksum(h);
        std::fstream out(path_,
                         std::ios::binary | std::ios::in | std::ios::out);
        out.write(reinterpret_cast<const char *>(&h), sizeof h);
        EXPECT_TRUE(static_cast<bool>(out));
    }

    void
    flipByteAt(std::uint64_t offset)
    {
        std::fstream f(path_,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekg(static_cast<std::streamoff>(offset));
        char c = 0;
        f.get(c);
        f.seekp(static_cast<std::streamoff>(offset));
        f.put(static_cast<char>(c ^ 0x5a));
        EXPECT_TRUE(static_cast<bool>(f));
    }

    /** Read the T at byte `offset`. */
    template <typename T>
    T
    readAt(std::uint64_t offset)
    {
        T v{};
        std::ifstream in(path_, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(offset));
        in.read(reinterpret_cast<char *>(&v), sizeof v);
        EXPECT_TRUE(static_cast<bool>(in));
        return v;
    }

    /** Overwrite the T at byte `offset`; the header is left as it was. */
    template <typename T>
    void
    writeAt(std::uint64_t offset, T v)
    {
        std::fstream f(path_,
                       std::ios::binary | std::ios::in | std::ios::out);
        f.seekp(static_cast<std::streamoff>(offset));
        f.write(reinterpret_cast<const char *>(&v), sizeof v);
        EXPECT_TRUE(static_cast<bool>(f));
    }

    std::uint64_t
    rowPtrAt(std::uint64_t row)
    {
        return readRawHeader().row_ptr_offset + row * sizeof(std::uint64_t);
    }

    std::uint64_t
    colIdxAt(std::uint64_t i)
    {
        return readRawHeader().col_idx_offset + i * sizeof(Index);
    }

    /** readScsr must fail with a FatalError naming the file. */
    void
    expectLoadFails()
    {
        expectFatalNaming([&] { readScsr(path_); }, path_);
    }

    std::string path_;
};

TEST_F(ScsrCorruption, TruncatedFileIsRejected)
{
    std::filesystem::resize_file(
        path_, std::filesystem::file_size(path_) / 2);
    expectLoadFails();
    EXPECT_THROW(readScsrHeader(path_), FatalError);
}

TEST_F(ScsrCorruption, BadMagicIsRejected)
{
    flipByteAt(0);
    expectLoadFails();
}

TEST_F(ScsrCorruption, HeaderBitrotFailsTheChecksum)
{
    // Flip a byte inside the dims without fixing the checksum.
    flipByteAt(offsetof(ScsrHeader, rows));
    expectLoadFails();
}

TEST_F(ScsrCorruption, UnsupportedVersionIsRejected)
{
    ScsrHeader h = readRawHeader();
    h.version = 2;
    writeRawHeader(h); // checksum valid: the version check must fire
    expectLoadFails();
}

TEST_F(ScsrCorruption, UnalignedSectionOffsetIsRejected)
{
    ScsrHeader h = readRawHeader();
    h.col_idx_offset += 8;
    writeRawHeader(h); // checksum valid: the layout check must fire
    expectLoadFails();
}

TEST_F(ScsrCorruption, SectionBitrotFailsTheContentHash)
{
    const ScsrHeader h = readRawHeader();
    flipByteAt(h.values_offset + 3);
    // The header page and the structure are intact, so the load
    // succeeds...
    EXPECT_EQ(readScsr(path_).nnz(), h.nnz);
    // ...and the explicit integrity pass catches the damage.
    expectFatalNaming([&] { verifyScsrContent(path_); }, path_);
}

TEST_F(ScsrCorruption, MissingFileFailsLoudly)
{
    expectFatalNaming([] { readScsr("/nonexistent/file.scsr"); },
                      "/nonexistent/file.scsr");
    EXPECT_THROW(readScsrHeader("/nonexistent/file.scsr"), FatalError);
    EXPECT_THROW(verifyScsrContent("/nonexistent/file.scsr"), FatalError);
}

// The structural faults below leave the header valid: each one loaded
// quietly past the end of the sections, or panicked without naming
// the file, before readScsr checked the structure.

TEST_F(ScsrCorruption, RowPtrEndPastTheNonzerosIsRejected)
{
    const ScsrHeader h = readRawHeader();
    writeAt<std::uint64_t>(rowPtrAt(h.rows), h.nnz + 50000000);
    expectLoadFails();
}

TEST_F(ScsrCorruption, RowPtrNotStartingAtZeroIsRejected)
{
    writeAt<std::uint64_t>(rowPtrAt(0), 1);
    expectLoadFails();
}

TEST_F(ScsrCorruption, DecreasingRowPtrIsRejected)
{
    const ScsrHeader h = readRawHeader();
    ASSERT_LT(readAt<std::uint64_t>(rowPtrAt(16)), h.nnz);
    writeAt<std::uint64_t>(rowPtrAt(15), h.nnz);
    expectLoadFails();
}

TEST_F(ScsrCorruption, ColumnOutOfRangeIsRejected)
{
    const ScsrHeader h = readRawHeader();
    writeAt<Index>(colIdxAt(0), static_cast<Index>(h.cols));
    expectLoadFails();
}

TEST_F(ScsrCorruption, UnsortedColumnsAreRejected)
{
    // Repeat the first column of the first row with two entries.
    std::uint64_t r = 0;
    while (readAt<std::uint64_t>(rowPtrAt(r + 1)) -
               readAt<std::uint64_t>(rowPtrAt(r)) < 2)
        ++r;
    const std::uint64_t first = readAt<std::uint64_t>(rowPtrAt(r));
    writeAt<Index>(colIdxAt(first + 1), readAt<Index>(colIdxAt(first)));
    expectLoadFails();
}

// --------------------------------------------- workload identities

TEST(ScsrWorkload, NameIsThePathStemAndIdentityPinsTheChecksum)
{
    const std::string path = uniqueTempPath("scsr_wl.scsr");
    writeScsr(generateUniform(20, 20, 80, 37), path);

    const driver::Workload w = driver::scsrWorkload(path);
    // The stem alone: no directory, no extension.
    EXPECT_EQ(w.name(), std::filesystem::path(path).stem().string());
    EXPECT_EQ(w.name().find('/'), std::string::npos);
    EXPECT_NE(w.identity().find("scsr:"), std::string::npos);
    EXPECT_NE(w.identity().find("|sum="), std::string::npos);
    const std::string before = w.identity();

    // Re-converting different content at the same path must change
    // the identity, or cached sweep results would go stale silently.
    writeScsr(generateUniform(20, 20, 80, 38), path);
    EXPECT_NE(driver::scsrWorkload(path).identity(), before);
    std::filesystem::remove(path);
}

TEST(ScsrWorkload, MtxIdentityTracksContentNotSizeOrMtime)
{
    // Two same-length files: size+mtime identity could not tell them
    // apart, the content hash must.
    const std::string path = writeTempFile(
        "scsr_wl_mtx.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 1.0\n");
    const std::string before =
        driver::matrixMarketWorkload(path).identity();
    EXPECT_NE(before.find("mtx:"), std::string::npos);
    EXPECT_NE(before.find("|fnv="), std::string::npos);

    writeTempFile("scsr_wl_mtx.mtx",
                  "%%MatrixMarket matrix coordinate real general\n"
                  "2 2 1\n"
                  "1 1 2.0\n");
    EXPECT_NE(driver::matrixMarketWorkload(path).identity(), before);

    // Both spellings of the same matrix sweep under the same name.
    const std::filesystem::path stem = uniqueTempPath("scsr_wl_mtx");
    EXPECT_EQ(driver::matrixMarketWorkload(path).name(),
              stem.filename().string());
    std::filesystem::remove(path);
}

TEST(ScsrWorkload, FileNamesDropTheDirectoryButKeysKeepThePath)
{
    // One matrix in two directories: the same name, so a sweep's CSV
    // does not depend on where it runs...
    const std::filesystem::path dir_a = uniqueTempPath("dir_a");
    const std::filesystem::path dir_b = uniqueTempPath("dir_b");
    const std::string text =
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 2\n1 1 1.0\n2 1 2.0\n";
    for (const std::filesystem::path &dir : {dir_a, dir_b}) {
        std::filesystem::create_directories(dir);
        std::ofstream(dir / "m.mtx") << text;
        writeScsr(readMatrixMarketFile((dir / "m.mtx").string()),
                  (dir / "m.scsr").string());
    }
    const std::string mtx_a = (dir_a / "m.mtx").string();
    const std::string scsr_a = (dir_a / "m.scsr").string();
    const driver::Workload a = driver::matrixMarketWorkload(mtx_a);
    const driver::Workload b =
        driver::matrixMarketWorkload((dir_b / "m.mtx").string());
    const driver::Workload s = driver::scsrWorkload(scsr_a);
    EXPECT_EQ(a.name(), "m");
    EXPECT_EQ(b.name(), "m");
    EXPECT_EQ(s.name(), "m");

    // ...while the cache identity, and so every result-cache key,
    // carries the full path and the content hash: on-disk caches stay
    // valid, and two files never share a key.
    EXPECT_EQ(a.identity(), "mtx:" + mtx_a + "|fnv=867917f97b93fb53");
    std::ostringstream sum;
    sum << std::hex << readScsrHeader(scsr_a).header_checksum;
    EXPECT_EQ(s.identity(), "scsr:" + scsr_a + "|sum=" + sum.str());
    using driver::ResultCache;
    driver::BatchTask task;
    task.workload = a;
    EXPECT_EQ(ResultCache::taskKey(task),
              ResultCache::key(SpArchConfig{}, a.identity(), 0, 1,
                               driver::ShardPolicy::NnzBalanced));
    driver::BatchTask other = task;
    other.workload = b;
    EXPECT_NE(ResultCache::taskKey(task), ResultCache::taskKey(other));
    std::filesystem::remove_all(dir_a);
    std::filesystem::remove_all(dir_b);
}

TEST(ScsrWorkload, GeneratorIdentityFormatsAreStable)
{
    // Golden pins: these strings feed ResultCache::key, so changing
    // them silently invalidates every on-disk result cache. The file
    // workload changes in this PR must leave them untouched.
    EXPECT_EQ(driver::suiteWorkload("wiki-Vote", 60000).identity(),
              "suite:wiki-Vote|nnz=60000|seed=42");
    EXPECT_EQ(driver::uniformWorkload(10, 10, 20, 1).identity(),
              "uniform-10x10-20|seed=1");
    EXPECT_EQ(driver::rmatWorkload(512, 8, 7).identity(),
              "rmat-512-x8|seed=7");
    EXPECT_EQ(driver::dnnLayerWorkload(64, 16, 0.25, 9).identity(),
              "dnn-64x16|density=0.25|seed=9");
}

TEST(ScsrWorkload, RegistrationRejectsCorruptFilesLoudly)
{
    const std::string path = uniqueTempPath("scsr_wl_bad.scsr");
    writeScsr(generateUniform(10, 10, 30, 41), path);
    std::filesystem::resize_file(
        path, std::filesystem::file_size(path) / 2);
    EXPECT_THROW(driver::scsrWorkload(path).validate(), FatalError);
    std::filesystem::remove(path);
}

} // namespace
} // namespace sparch
