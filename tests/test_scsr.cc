/**
 * @file
 * Tests for the .scsr on-disk format: writer/mmap round trips, the
 * streaming converter's bit-identity with the in-core path, corruption
 * rejection, workload identities, and the O(buffer-pool) memory
 * accounting the converter claims.
 */

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "driver/batch_runner.hh"
#include "driver/result_cache.hh"
#include "driver/sharded_simulator.hh"
#include "driver/workload.hh"
#include "matrix/generators.hh"
#include "matrix/matrix_market.hh"
#include "matrix/scsr.hh"
#include "matrix/scsr_convert.hh"
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

// ------------------------------------------------------ write / map

TEST(Scsr, WriteThenMapRoundTripsBitIdentically)
{
    const CsrMatrix m = generateUniform(120, 90, 800, 7);
    const std::string path = uniqueTempPath("scsr_roundtrip.scsr");
    const ScsrHeader header = writeScsr(m, path);
    EXPECT_EQ(header.rows, 120u);
    EXPECT_EQ(header.cols, 90u);
    EXPECT_EQ(header.nnz, m.nnz());
    EXPECT_EQ(header.file_bytes % kScsrAlign, 0u);
    EXPECT_EQ(std::filesystem::file_size(path), header.file_bytes);

    const MappedCsr mapped = MappedCsr::open(path);
    expectBitIdentical(mapped.toCsr(), m);
    mapped.verifyContent(); // full re-hash must agree with the header
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
    const MappedCsr mapped = MappedCsr::open(path);
    EXPECT_EQ(mapped.rows(), 4u);
    EXPECT_EQ(mapped.cols(), 5u);
    EXPECT_EQ(mapped.nnz(), 0u);
    expectBitIdentical(mapped.toCsr(), m);
    std::filesystem::remove(path);
}

// --------------------------------------------- converter bit-identity

TEST(ScsrConvert, MatchesInCoreReadThenWriteByteForByte)
{
    const CsrMatrix m = generateUniform(200, 200, 2500, 19);
    const std::string mtx = uniqueTempPath("scsr_conv.mtx");
    writeMatrixMarketFile(m, mtx);

    const std::string via_memory = uniqueTempPath("scsr_conv_mem.scsr");
    writeScsr(readMatrixMarketFile(mtx), via_memory);

    const std::string via_stream = uniqueTempPath("scsr_conv_stream.scsr");
    ConvertOptions opts;
    opts.buffer_bytes = 4096; // force many chunks through the pipeline
    opts.buffers = 3;
    opts.parser_threads = 2;
    const ConvertStats stats =
        convertMatrixMarketToScsr(mtx, via_stream, opts);
    EXPECT_EQ(stats.rows, 200u);
    EXPECT_EQ(stats.nnz, m.nnz());
    EXPECT_GT(stats.chunks, 4u);

    EXPECT_EQ(fileBytes(via_stream), fileBytes(via_memory));
    std::filesystem::remove(mtx);
    std::filesystem::remove(via_memory);
    std::filesystem::remove(via_stream);
}

/** Converter and reader must agree on every Matrix Market dialect. */
void
expectConverterMatchesReader(const std::string &name,
                             const std::string &mtx_text)
{
    const std::string mtx = writeTempFile(name + ".mtx", mtx_text);
    const std::string via_memory = uniqueTempPath(name + "_mem.scsr");
    const std::string via_stream = uniqueTempPath(name + "_stream.scsr");
    writeScsr(readMatrixMarketFile(mtx), via_memory);
    convertMatrixMarketToScsr(mtx, via_stream);
    EXPECT_EQ(fileBytes(via_stream), fileBytes(via_memory));
    std::filesystem::remove(mtx);
    std::filesystem::remove(via_memory);
    std::filesystem::remove(via_stream);
}

TEST(ScsrConvert, ExpandsSymmetricMirrors)
{
    expectConverterMatchesReader(
        "scsr_sym",
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "4 4 4\n"
        "2 1 1.5\n"
        "3 3 2.0\n"
        "4 2 -1.0\n"
        "1 1 0.5\n");
}

TEST(ScsrConvert, PatternEntriesGetUnitValues)
{
    expectConverterMatchesReader(
        "scsr_pat",
        "%%MatrixMarket matrix coordinate pattern general\n"
        "3 3 3\n"
        "1 2\n"
        "3 1\n"
        "2 2\n");
}

TEST(ScsrConvert, SumsDuplicatesInFileOrderAndDropsZeros)
{
    // (1,1) cancels to 0.0 and (3,1) is an explicit zero: both must
    // vanish, exactly as CooMatrix::canonicalize drops them.
    expectConverterMatchesReader(
        "scsr_dup",
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 6\n"
        "1 1 2.0\n"
        "1 1 -2.0\n"
        "2 3 1.0\n"
        "2 3 2.5\n"
        "3 1 0.0\n"
        "2 1 4.0\n");
}

TEST(ScsrConvert, LoadedMatrixMatchesDirectRead)
{
    const CsrMatrix m = generateUniform(80, 80, 600, 23);
    const std::string mtx = uniqueTempPath("scsr_load.mtx");
    writeMatrixMarketFile(m, mtx);
    const std::string scsr = uniqueTempPath("scsr_load.scsr");
    convertMatrixMarketToScsr(mtx, scsr);
    expectBitIdentical(MappedCsr::open(scsr).toCsr(),
                       readMatrixMarketFile(mtx));
    std::filesystem::remove(mtx);
    std::filesystem::remove(scsr);
}

TEST(ScsrConvert, RejectsTruncatedAndOverlongInputs)
{
    const std::string truncated = writeTempFile(
        "scsr_conv_trunc.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 3\n"
        "1 1 1.0\n");
    EXPECT_THROW(convertMatrixMarketToScsr(
                     truncated, uniqueTempPath("scsr_conv_trunc.scsr")),
                 FatalError);
    std::filesystem::remove(truncated);

    const std::string overlong = writeTempFile(
        "scsr_conv_extra.mtx",
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "1 1 1.0\n"
        "2 2 2.0\n");
    EXPECT_THROW(convertMatrixMarketToScsr(
                     overlong, uniqueTempPath("scsr_conv_extra.scsr")),
                 FatalError);
    std::filesystem::remove(overlong);
}

// -------------------------------------------- O(buffer-pool) memory

TEST(ScsrConvert, ResidentMemoryIsBoundedByThePoolNotTheFile)
{
    // Same shape, 8x the nonzeros: the input grows ~8x but the
    // pipeline's resident allocation (buffer pool + parsed batches)
    // is sized by ConvertOptions alone and must not scale with it.
    ConvertOptions opts;
    opts.buffer_bytes = 32 * 1024;
    opts.buffers = 2;
    opts.parser_threads = 2;

    const auto convert = [&](std::uint64_t nnz, const char *tag) {
        const CsrMatrix m = generateUniform(2000, 2000, nnz, 5);
        const std::string mtx = uniqueTempPath(std::string(tag) + ".mtx");
        const std::string scsr =
            uniqueTempPath(std::string(tag) + ".scsr");
        writeMatrixMarketFile(m, mtx);
        const ConvertStats s =
            convertMatrixMarketToScsr(mtx, scsr, opts);
        std::filesystem::remove(mtx);
        std::filesystem::remove(scsr);
        return s;
    };

    const ConvertStats small = convert(20000, "scsr_mem_small");
    const ConvertStats big = convert(160000, "scsr_mem_big");

    EXPECT_GE(big.bytes_in, 6 * small.bytes_in);
    // Pool allocation is a function of the options, not the input.
    EXPECT_LE(big.pool_bytes, small.pool_bytes * 13 / 10);
    // The row tables are O(rows) and identical for the fixed shape.
    EXPECT_EQ(big.table_bytes, small.table_bytes);
    // The out-of-core state (mmapped scratch) did grow with the file;
    // the resident pool stays far below it.
    EXPECT_GT(big.scratch_file_bytes, 4 * small.scratch_file_bytes);
    EXPECT_LT(big.pool_bytes, big.scratch_file_bytes);
    EXPECT_LT(big.pool_bytes, big.bytes_in);
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

    std::string path_;
};

TEST_F(ScsrCorruption, TruncatedFileIsRejected)
{
    std::filesystem::resize_file(
        path_, std::filesystem::file_size(path_) / 2);
    EXPECT_THROW(MappedCsr::open(path_), FatalError);
    EXPECT_THROW(readScsrHeader(path_), FatalError);
}

TEST_F(ScsrCorruption, BadMagicIsRejected)
{
    flipByteAt(0);
    EXPECT_THROW(MappedCsr::open(path_), FatalError);
}

TEST_F(ScsrCorruption, HeaderBitrotFailsTheChecksum)
{
    // Flip a byte inside the dims without fixing the checksum.
    flipByteAt(offsetof(ScsrHeader, rows));
    EXPECT_THROW(MappedCsr::open(path_), FatalError);
}

TEST_F(ScsrCorruption, UnsupportedVersionIsRejected)
{
    ScsrHeader h = readRawHeader();
    h.version = 2;
    writeRawHeader(h); // checksum valid: the version check must fire
    EXPECT_THROW(MappedCsr::open(path_), FatalError);
}

TEST_F(ScsrCorruption, UnalignedSectionOffsetIsRejected)
{
    ScsrHeader h = readRawHeader();
    h.col_idx_offset += 8;
    writeRawHeader(h); // checksum valid: the layout check must fire
    EXPECT_THROW(MappedCsr::open(path_), FatalError);
}

TEST_F(ScsrCorruption, SectionBitrotFailsTheContentHash)
{
    const ScsrHeader h = readRawHeader();
    flipByteAt(h.values_offset + 3);
    // The header page is intact, so the cheap open succeeds...
    const MappedCsr mapped = MappedCsr::open(path_);
    // ...and the explicit integrity pass catches the damage.
    EXPECT_THROW(mapped.verifyContent(), FatalError);
}

TEST_F(ScsrCorruption, MissingFileFailsLoudly)
{
    EXPECT_THROW(MappedCsr::open("/nonexistent/file.scsr"),
                 FatalError);
    EXPECT_THROW(readScsrHeader("/nonexistent/file.scsr"), FatalError);
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
