/**
 * @file
 * Tests for the streaming merge tree: K-way merge correctness, adder
 * coalescing, end-of-stream propagation, and back-pressure liveness.
 */

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "hw/fifo.hh"
#include "hw/merge_tree.hh"

namespace sparch
{
namespace hw
{
namespace
{

/** Feed the given arrays through a tree and return the root stream. */
std::vector<StreamElement>
mergeArrays(const std::vector<std::vector<StreamElement>> &arrays,
            const MergeTreeConfig &config)
{
    MergeTree tree(config, "tree");
    tree.startRound(static_cast<unsigned>(arrays.size()));

    std::vector<std::size_t> cursor(arrays.size(), 0);
    std::vector<StreamElement> out;
    std::size_t guard = 0;
    for (;;) {
        bool all_fed = true;
        for (unsigned i = 0; i < arrays.size(); ++i) {
            while (cursor[i] < arrays[i].size() &&
                   tree.leafFreeSpace(i) > 0) {
                tree.pushLeaf(i, arrays[i][cursor[i]++]);
            }
            if (cursor[i] == arrays[i].size()) {
                cursor[i] = arrays[i].size() + 1; // finish once
                tree.finishLeaf(i);
            }
            all_fed &= cursor[i] > arrays[i].size();
        }
        tree.clockUpdate();
        tree.clockApply();
        while (tree.rootHasPoppable()) {
            const StreamElement e = tree.popRoot();
            if (!out.empty() && out.back().coord == e.coord)
                out.back().value += e.value;
            else
                out.push_back(e);
        }
        if (all_fed && tree.done() && !tree.rootHasData())
            break;
        if (++guard > 10'000'000u) {
            ADD_FAILURE() << "merge tree not live";
            break;
        }
    }
    return out;
}

/** Reference: concatenate, sort, coalesce equal coordinates. */
std::vector<StreamElement>
referenceMerge(const std::vector<std::vector<StreamElement>> &arrays)
{
    std::map<Coord, Value> acc;
    for (const auto &a : arrays) {
        for (const auto &e : a)
            acc[e.coord] += e.value;
    }
    std::vector<StreamElement> out;
    for (const auto &[c, v] : acc)
        out.push_back({c, v});
    return out;
}

std::vector<std::vector<StreamElement>>
randomArrays(Rng &rng, unsigned count, std::size_t max_len)
{
    std::vector<std::vector<StreamElement>> arrays(count);
    for (auto &a : arrays) {
        Coord c = 0;
        const std::size_t len = rng.nextBounded(max_len + 1);
        for (std::size_t i = 0; i < len; ++i) {
            c += 1 + rng.nextBounded(4);
            a.push_back({c, rng.nextDouble(0.5, 1.5)});
        }
    }
    return arrays;
}

TEST(MergeTree, MergesTwoSortedArrays)
{
    MergeTreeConfig cfg;
    cfg.layers = 1;
    cfg.mergerWidth = 2;
    cfg.fifoCapacity = 8;
    std::vector<std::vector<StreamElement>> arrays = {
        {{1, 1.0}, {5, 2.0}, {9, 3.0}},
        {{2, 1.0}, {5, 4.0}, {12, 1.0}}};
    const auto out = mergeArrays(arrays, cfg);
    const auto expect = referenceMerge(arrays);
    ASSERT_EQ(out.size(), expect.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_EQ(out[i].coord, expect[i].coord);
        EXPECT_DOUBLE_EQ(out[i].value, expect[i].value);
    }
}

TEST(MergeTree, SingleActiveLeafPassesThrough)
{
    MergeTreeConfig cfg;
    cfg.layers = 3;
    std::vector<std::vector<StreamElement>> arrays = {
        {{3, 1.0}, {4, 2.0}, {19, 3.0}}};
    const auto out = mergeArrays(arrays, cfg);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[2].coord, 19u);
}

TEST(MergeTree, EmptyInputsFinishImmediately)
{
    MergeTreeConfig cfg;
    cfg.layers = 2;
    std::vector<std::vector<StreamElement>> arrays(4);
    EXPECT_TRUE(mergeArrays(arrays, cfg).empty());
}

TEST(MergeTree, CoalescesDuplicatesAndCountsAdditions)
{
    MergeTreeConfig cfg;
    cfg.layers = 1;
    MergeTree tree(cfg, "tree");
    tree.startRound(2);
    tree.pushLeaf(0, {7, 1.0});
    tree.pushLeaf(1, {7, 2.0});
    tree.finishLeaf(0);
    tree.finishLeaf(1);
    for (int i = 0; i < 10; ++i) {
        tree.clockUpdate();
        tree.clockApply();
    }
    ASSERT_TRUE(tree.rootHasPoppable());
    const StreamElement e = tree.popRoot();
    EXPECT_EQ(e.coord, 7u);
    EXPECT_DOUBLE_EQ(e.value, 3.0);
    EXPECT_EQ(tree.additions(), 1u);
    EXPECT_TRUE(tree.done());
}

TEST(MergeTree, DoneRequiresAllLeavesFinished)
{
    MergeTreeConfig cfg;
    cfg.layers = 2;
    MergeTree tree(cfg, "tree");
    tree.startRound(3);
    tree.finishLeaf(0);
    tree.finishLeaf(1);
    for (int i = 0; i < 10; ++i) {
        tree.clockUpdate();
        tree.clockApply();
    }
    EXPECT_FALSE(tree.done());
    tree.finishLeaf(2);
    for (int i = 0; i < 10; ++i) {
        tree.clockUpdate();
        tree.clockApply();
    }
    EXPECT_TRUE(tree.done());
}

#if SPARCH_DCHECK_IS_ON
TEST(MergeTree, PushToFinishedLeafPanics)
{
    MergeTreeConfig cfg;
    cfg.layers = 1;
    MergeTree tree(cfg, "tree");
    tree.startRound(1);
    tree.finishLeaf(0);
    EXPECT_THROW(tree.pushLeaf(0, {1, 1.0}), PanicError);
}

TEST(MergeTree, OutOfOrderLeafPushPanics)
{
    MergeTreeConfig cfg;
    cfg.layers = 1;
    MergeTree tree(cfg, "tree");
    tree.startRound(2);
    tree.pushLeaf(0, {5, 1.0});
    EXPECT_THROW(tree.pushLeaf(0, {3, 1.0}), PanicError);
}
#endif // SPARCH_DCHECK_IS_ON

TEST(MergeTree, TracksFifoTraffic)
{
    MergeTreeConfig cfg;
    cfg.layers = 2;
    std::vector<std::vector<StreamElement>> arrays = {
        {{1, 1.0}}, {{2, 1.0}}, {{3, 1.0}}, {{4, 1.0}}};
    MergeTree tree(cfg, "tree");
    tree.startRound(4);
    for (unsigned i = 0; i < 4; ++i) {
        tree.pushLeaf(i, arrays[i][0]);
        tree.finishLeaf(i);
    }
    while (!tree.done()) {
        tree.clockUpdate();
        tree.clockApply();
        while (tree.rootHasPoppable())
            tree.popRoot();
    }
    // 4 leaf pushes, then each element climbs 2 levels.
    EXPECT_EQ(tree.elementsMerged(), 8u);
    EXPECT_GE(tree.fifoPushes(), 12u);
    EXPECT_EQ(tree.fifoPushes(), tree.fifoPops() + 0u);
}

/** Property: random K-way merges across tree/merger geometries. */
struct TreeGeometry
{
    unsigned layers;
    unsigned width;
    std::size_t fifo;
};

class MergeTreeProperty
    : public ::testing::TestWithParam<TreeGeometry>
{};

TEST_P(MergeTreeProperty, MatchesReferenceKWayMerge)
{
    const TreeGeometry g = GetParam();
    MergeTreeConfig cfg;
    cfg.layers = g.layers;
    cfg.mergerWidth = g.width;
    cfg.fifoCapacity = g.fifo;
    Rng rng(g.layers * 100 + g.width);
    for (int trial = 0; trial < 12; ++trial) {
        const unsigned count =
            1 + static_cast<unsigned>(
                    rng.nextBounded(1u << g.layers));
        auto arrays = randomArrays(rng, count, 60);
        const auto out = mergeArrays(arrays, cfg);
        const auto expect = referenceMerge(arrays);
        ASSERT_EQ(out.size(), expect.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
            EXPECT_EQ(out[i].coord, expect[i].coord);
            EXPECT_DOUBLE_EQ(out[i].value, expect[i].value);
        }
    }
}

// The leaf-full bitmask the multiplier scan reads must equal the FIFO
// state after any interleaving of leaf pushes, merger cycles and round
// restarts; 7 layers put the 128 leaves across two words.
TEST_P(MergeTreeProperty, LeafFullBitEqualsZeroFreeSpace)
{
    const TreeGeometry g = GetParam();
    for (const unsigned layers : {g.layers, 7u}) {
        MergeTreeConfig cfg;
        cfg.layers = layers;
        cfg.mergerWidth = g.width;
        cfg.fifoCapacity = g.fifo;
        MergeTree tree(cfg, "tree");
        Rng rng(layers * 1000 + g.width);
        const unsigned leaves = tree.leafCount();
        auto check = [&](const char *after) {
            for (unsigned l = 0; l < leaves; ++l) {
                ASSERT_EQ(tree.leafFull().test(l),
                          tree.leafFreeSpace(l) == 0)
                    << "leaf " << l << " after " << after;
            }
        };
        for (int round = 0; round < 3; ++round) {
            tree.startRound(leaves);
            check("startRound");
            std::vector<Coord> next(leaves, 1);
            for (int step = 0; step < 400; ++step) {
                // Bursty pushes so that leaves fill up and the merger
                // falls behind.
                const auto pushes = rng.nextBounded(4 * leaves);
                for (std::uint64_t i = 0; i < pushes; ++i) {
                    const auto l =
                        static_cast<unsigned>(rng.nextBounded(leaves));
                    if (tree.leafFreeSpace(l) > 0) {
                        tree.pushLeaf(l, {next[l], 1.0});
                        next[l] += 1 + rng.nextBounded(3);
                    }
                }
                check("pushLeaf");
                tree.clockUpdate();
                tree.clockApply();
                check("clockUpdate");
                if (rng.nextBool(0.5)) {
                    while (tree.rootHasPoppable())
                        tree.popRoot();
                }
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MergeTreeProperty,
    ::testing::Values(TreeGeometry{1, 1, 4}, TreeGeometry{2, 2, 4},
                      TreeGeometry{3, 4, 8}, TreeGeometry{4, 16, 16},
                      TreeGeometry{6, 16, 64}, TreeGeometry{2, 16, 2},
                      TreeGeometry{5, 8, 32}));

} // namespace
} // namespace hw
} // namespace sparch
