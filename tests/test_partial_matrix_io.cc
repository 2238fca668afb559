/**
 * @file
 * Tests for the partial matrix writer: it drains a small merge tree,
 * coalesces same-coordinate elements while their burst is still
 * buffered, writes bursts at consecutive addresses, and checks the
 * final round's stream. A final round that does not keep the product
 * must count, coalesce, write and check exactly like one that does.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/partial_matrix_io.hh"
#include "hw/clocked.hh"
#include "hw/merge_tree.hh"

namespace sparch
{
namespace
{

/** One timed DRAM access. */
struct Access
{
    Bytes addr;
    Bytes bytes;
    bool write;

    bool operator==(const Access &) const = default;
};

/** An ideal memory that logs every access it times. */
class AccessLog final : public mem::MemoryModel
{
  public:
    Bytes peakBytesPerCycle() const override { return 0; }
    mem::MemoryKind kind() const override { return mem::MemoryKind::Ideal; }

    std::vector<Access> accesses;

  protected:
    Cycle
    timeAccess(Bytes addr, Bytes bytes, Cycle now, bool is_write) override
    {
        accesses.push_back({addr, bytes, is_write});
        return now;
    }

    void resetTiming() override {}
};

/** What one writer round left behind. */
struct RoundOutput
{
    std::vector<StreamElement> captured;
    std::size_t emitted = 0;
    std::uint64_t additions = 0;
    std::vector<Access> writes;
    Bytes finalBytes = 0;
    Bytes partialBytes = 0;
};

constexpr Bytes kBase = 1200;
constexpr Bytes kRowptrBytes = 40;
constexpr Index kShape = 64;

StreamElement
at(Index row, Index col, Value value = 1.0)
{
    return {packCoord(row, col), value};
}

/**
 * Push each array into its own leaf of a 4-way tree, then run the tree
 * and the writer on the simulator kernel until the writer drains. A
 * final round writes into a kShape x kShape product.
 */
RoundOutput
runRound(const SpArchConfig &cfg,
         const std::vector<std::vector<StreamElement>> &arrays,
         bool final_round, bool keep_product)
{
    AccessLog mem;
    hw::MergeTree tree(cfg.mergeTree);
    PartialMatrixWriter writer(cfg, mem, kShape, kShape, keep_product);
    writer.connectTree(&tree);

    tree.startRound(static_cast<unsigned>(arrays.size()));
    writer.startRound(final_round, kBase, final_round ? kRowptrBytes : 0);
    for (unsigned leaf = 0; leaf < arrays.size(); ++leaf) {
        for (const StreamElement &e : arrays[leaf])
            tree.pushLeaf(leaf, e);
        tree.finishLeaf(leaf);
    }
    hw::SimKernel<hw::MergeTree, PartialMatrixWriter> kernel(tree, writer);
    EXPECT_TRUE(kernel.run(
        [&](Cycle now) { return writer.drained(now); }, 100000));

    RoundOutput out;
    out.emitted = writer.emitted();
    out.captured = writer.takeCaptured();
    out.additions = writer.additions();
    out.writes = mem.accesses;
    out.finalBytes = mem.streamBytes(DramStream::FinalWrite);
    out.partialBytes = mem.streamBytes(DramStream::PartialWrite);
    return out;
}

/** A 4-way tree whose leaves hold a whole test array. */
SpArchConfig
smallTree()
{
    SpArchConfig cfg;
    cfg.mergeTree.layers = 2;
    cfg.mergeTree.mergerWidth = 2;
    cfg.mergeTree.fifoCapacity = 64;
    return cfg;
}

/** Sorted arrays that share coordinates across leaves. */
std::vector<std::vector<StreamElement>>
overlappingArrays()
{
    std::vector<std::vector<StreamElement>> arrays(4);
    for (unsigned leaf = 0; leaf < 4; ++leaf) {
        for (Index i = 0; i < 40; ++i) {
            if ((i + leaf) % 3 != 0)
                arrays[leaf].push_back(at(i / 4, (i * 7 + leaf) % 8,
                                          1.0 + leaf));
        }
    }
    for (auto &array : arrays)
        std::sort(array.begin(), array.end());
    return arrays;
}

TEST(PartialMatrixWriter, CountEqualsTheCapturedSize)
{
    SpArchConfig cfg = smallTree();
    cfg.writerBurst = 8;
    cfg.writerFifo = 16;
    const auto arrays = overlappingArrays();
    const RoundOutput partial = runRound(cfg, arrays, false, false);
    const RoundOutput kept = runRound(cfg, arrays, true, true);
    const RoundOutput counted = runRound(cfg, arrays, true, false);

    std::size_t inputs = 0;
    for (const auto &array : arrays)
        inputs += array.size();
    EXPECT_LT(kept.emitted, inputs); // the tree folded shared coordinates
    ASSERT_GT(kept.captured.size(), 2 * cfg.writerBurst);
    EXPECT_EQ(kept.emitted, kept.captured.size());
    // Earlier rounds always capture: the next round reads them back.
    EXPECT_EQ(partial.captured, kept.captured);
    EXPECT_EQ(partial.emitted, kept.emitted);

    // Count-only: nothing captured, everything else identical.
    EXPECT_TRUE(counted.captured.empty());
    EXPECT_EQ(counted.emitted, kept.emitted);
    EXPECT_EQ(counted.additions, kept.additions);
    EXPECT_EQ(counted.writes, kept.writes);
    EXPECT_EQ(counted.finalBytes, kept.finalBytes);
    EXPECT_EQ(kept.finalBytes,
              kept.emitted * bytesPerElement + kRowptrBytes);
    EXPECT_EQ(partial.partialBytes, kept.emitted * bytesPerElement);
}

TEST(PartialMatrixWriter, CoalescesUntilTheBurstIsWritten)
{
    // The tree's adder slices are off, so the same coordinate reaches
    // the root once per element, in separate merger windows.
    SpArchConfig cfg = smallTree();
    cfg.mergeTree.combineDuplicates = false;
    const std::vector<std::vector<StreamElement>> arrays = {
        {at(0, 1, 1.0), at(0, 1, 2.0), at(0, 1, 4.0), at(2, 3, 8.0)},
        {at(0, 1, 16.0), at(1, 0, 32.0)},
    };

    // A burst larger than the stream: all equal coordinates fold.
    const std::vector<StreamElement> folded = {
        at(0, 1, 23.0), at(1, 0, 32.0), at(2, 3, 8.0)};
    for (bool final_round : {false, true}) {
        const RoundOutput r = runRound(cfg, arrays, final_round, true);
        EXPECT_EQ(r.captured, folded);
        EXPECT_EQ(r.additions, 3u);
        EXPECT_EQ(r.emitted, 3u);
    }
    const RoundOutput counted = runRound(cfg, arrays, true, false);
    EXPECT_TRUE(counted.captured.empty());
    EXPECT_EQ(counted.additions, 3u);
    EXPECT_EQ(counted.emitted, 3u);

    // One-element FIFO and bursts: each element is written before the
    // next arrives, so nothing folds and the stream keeps all four
    // (0, 1) elements.
    cfg.writerBurst = 1;
    cfg.writerFifo = 1;
    const RoundOutput r = runRound(cfg, arrays, false, true);
    EXPECT_EQ(r.additions, 0u);
    ASSERT_EQ(r.captured.size(), 6u);
    EXPECT_EQ(r.emitted, 6u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(r.captured[i].coord, packCoord(0, 1));
    EXPECT_EQ(r.writes.size(), 6u);
}

TEST(PartialMatrixWriter, BurstsWriteConsecutiveAddresses)
{
    SpArchConfig cfg = smallTree();
    cfg.writerBurst = 4;
    cfg.writerFifo = 8;
    std::vector<StreamElement> ten;
    for (Index i = 0; i < 10; ++i)
        ten.push_back(at(i, 2 * i));

    const Bytes e = bytesPerElement;
    const std::vector<Access> bursts = {
        {kBase, 4 * e, true},
        {kBase + 4 * e, 4 * e, true},
        {kBase + 8 * e, 2 * e, true},
    };
    EXPECT_EQ(runRound(cfg, {ten}, false, true).writes, bursts);

    // The final round adds the CSR row pointers after the tail burst,
    // whether or not it keeps the product.
    std::vector<Access> with_rowptr = bursts;
    with_rowptr.push_back({kBase + kRowptrBytes, kRowptrBytes, true});
    EXPECT_EQ(runRound(cfg, {ten}, true, true).writes, with_rowptr);
    EXPECT_EQ(runRound(cfg, {ten}, true, false).writes, with_rowptr);
}

/** The PanicError message of a final round over `arrays`. */
std::string
finalRoundPanic(const SpArchConfig &cfg,
                const std::vector<std::vector<StreamElement>> &arrays,
                bool keep_product)
{
    try {
        runRound(cfg, arrays, true, keep_product);
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(PartialMatrixWriter, FinalRoundChecksOrderAndRange)
{
    SpArchConfig cfg = smallTree();
    cfg.mergeTree.combineDuplicates = false;
    cfg.writerBurst = 1;
    cfg.writerFifo = 1;
    // A coordinate repeated after its burst was written: a final
    // stream that is not strictly sorted.
    const std::vector<std::vector<StreamElement>> repeated = {
        {at(0, 1), at(0, 1)}};
    // A coordinate outside the kShape x kShape product.
    const std::vector<std::vector<StreamElement>> outside = {
        {at(0, 1), at(kShape, 0)}};
    const std::vector<std::vector<StreamElement>> outside_col = {
        {at(3, kShape)}};

    for (bool keep : {true, false}) {
        SCOPED_TRACE(keep ? "product kept" : "count only");
        EXPECT_NE(finalRoundPanic(cfg, repeated, keep)
                      .find("final stream not strictly sorted"),
                  std::string::npos);
        EXPECT_NE(finalRoundPanic(cfg, outside, keep)
                      .find("final stream coordinate out of range"),
                  std::string::npos);
        EXPECT_NE(finalRoundPanic(cfg, outside_col, keep)
                      .find("final stream coordinate out of range"),
                  std::string::npos);
        // A descending leaf is out of order too (DCHECK builds already
        // reject it at the leaf).
        EXPECT_THROW(runRound(cfg, {{at(5, 0), at(2, 0)}}, true, keep),
                     PanicError);
    }
    // Earlier rounds may repeat a coordinate: the next round folds it.
    EXPECT_EQ(runRound(cfg, repeated, false, true).captured.size(), 2u);
}

} // namespace
} // namespace sparch
