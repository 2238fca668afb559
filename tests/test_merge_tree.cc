/**
 * @file
 * Tests for the streaming merge tree: K-way merge correctness, adder
 * coalescing, end-of-stream propagation, back-pressure liveness, and
 * pins on when each element leaves the root.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <map>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "hw/fifo.hh"
#include "hw/merge_tree.hh"
#include "matrix/scsr.hh"

namespace sparch
{
namespace hw
{
namespace
{

/** One element leaving the root, and the cycle it left on. */
struct RootPop
{
    std::uint64_t cycle;
    StreamElement element;
};

/**
 * Feed the given arrays through `tree` and return every root pop.
 * Leaves are refilled greedily each cycle; the root is drained after
 * every cycle, or, with a `consumer` Rng, on half the cycles at random
 * (a back-pressured writer). A leaf is finished `finish_lag` cycles
 * after its last push, so with a lag it is often finished while empty
 * and on a cycle that pushes nothing.
 */
std::vector<RootPop>
driveTree(MergeTree &tree,
          const std::vector<std::vector<StreamElement>> &arrays,
          Rng *consumer = nullptr, unsigned finish_lag = 0)
{
    tree.startRound(static_cast<unsigned>(arrays.size()));

    constexpr std::uint64_t kUnset = ~std::uint64_t{0};
    std::vector<std::size_t> cursor(arrays.size(), 0);
    std::vector<std::uint64_t> finish_at(arrays.size(), kUnset);
    std::vector<RootPop> out;
    std::size_t guard = 0;
    for (std::uint64_t cycle = 0;; ++cycle) {
        bool all_fed = true;
        for (unsigned i = 0; i < arrays.size(); ++i) {
            while (cursor[i] < arrays[i].size() &&
                   tree.leafFreeSpace(i) > 0) {
                tree.pushLeaf(i, arrays[i][cursor[i]++]);
            }
            if (cursor[i] == arrays[i].size()) {
                if (finish_at[i] == kUnset)
                    finish_at[i] = cycle + finish_lag;
                if (cycle >= finish_at[i]) {
                    cursor[i] = arrays[i].size() + 1; // finish once
                    tree.finishLeaf(i);
                }
            }
            all_fed &= cursor[i] > arrays[i].size();
        }
        tree.clockUpdate(cycle);
        if (consumer == nullptr || consumer->nextBool(0.5)) {
            while (tree.rootHasPoppable())
                out.push_back({cycle, tree.popRoot()});
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

/** Feed the given arrays through a tree and return the root stream. */
std::vector<StreamElement>
mergeArrays(const std::vector<std::vector<StreamElement>> &arrays,
            const MergeTreeConfig &config, unsigned finish_lag = 0)
{
    MergeTree tree(config);
    std::vector<StreamElement> out;
    for (const RootPop &pop : driveTree(tree, arrays, nullptr,
                                        finish_lag)) {
        const StreamElement &e = pop.element;
        if (!out.empty() && out.back().coord == e.coord)
            out.back().value += e.value;
        else
            out.push_back(e);
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
    MergeTree tree(cfg);
    tree.startRound(2);
    tree.pushLeaf(0, {7, 1.0});
    tree.pushLeaf(1, {7, 2.0});
    tree.finishLeaf(0);
    tree.finishLeaf(1);
    for (Cycle now = 0; now < 10; ++now)
        tree.clockUpdate(now);
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
    MergeTree tree(cfg);
    tree.startRound(3);
    tree.finishLeaf(0);
    tree.finishLeaf(1);
    for (Cycle now = 0; now < 10; ++now)
        tree.clockUpdate(now);
    EXPECT_FALSE(tree.done());
    tree.finishLeaf(2);
    for (Cycle now = 0; now < 10; ++now)
        tree.clockUpdate(now);
    EXPECT_TRUE(tree.done());
}

#if SPARCH_DCHECK_IS_ON
TEST(MergeTree, PushToFinishedLeafPanics)
{
    MergeTreeConfig cfg;
    cfg.layers = 1;
    MergeTree tree(cfg);
    tree.startRound(1);
    tree.finishLeaf(0);
    EXPECT_THROW(tree.pushLeaf(0, {1, 1.0}), PanicError);
}

TEST(MergeTree, OutOfOrderLeafPushPanics)
{
    MergeTreeConfig cfg;
    cfg.layers = 1;
    MergeTree tree(cfg);
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
    MergeTree tree(cfg);
    tree.startRound(4);
    for (unsigned i = 0; i < 4; ++i) {
        tree.pushLeaf(i, arrays[i][0]);
        tree.finishLeaf(i);
    }
    for (Cycle now = 0; !tree.done(); ++now) {
        tree.clockUpdate(now);
        while (tree.rootHasPoppable())
            tree.popRoot();
    }
    // 4 leaf pushes, then each element climbs 2 levels.
    EXPECT_EQ(tree.elementsMerged(), 8u);
    EXPECT_GE(tree.fifoPushes(), 12u);
    EXPECT_EQ(tree.fifoPushes(), tree.fifoPops() + 0u);
}

/**
 * Property: random K-way merges across tree/merger geometries. gtest
 * prints a parameter's raw bytes into the ctest name, so the struct
 * must have no padding or the names change from build to build.
 */
struct TreeGeometry
{
    unsigned layers;
    unsigned width;
    std::uint32_t fifo;
    /** Cycles between a leaf's last push and its finishLeaf(). */
    std::uint32_t finishLag = 0;
};
static_assert(sizeof(TreeGeometry) == 16);

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
        const auto out = mergeArrays(arrays, cfg, g.finishLag);
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
        MergeTree tree(cfg);
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
                tree.clockUpdate(static_cast<Cycle>(step));
                check("clockUpdate");
                if (rng.nextBool(0.5)) {
                    while (tree.rootHasPoppable())
                        tree.popRoot();
                }
            }
        }
    }
}

/**
 * Cycle behaviour pins: per geometry, an FNV-1a digest of the cycle
 * and element of every root pop plus the five tree counters, over
 * random merges with a greedy and a back-pressured consumer.
 * MatchesReferenceKWayMerge checks what leaves the root; these check
 * when it leaves. A change that moves them on purpose re-derives them
 * and says why.
 */
struct TimingPin
{
    TreeGeometry geometry;
    std::uint64_t combined;   //!< combineDuplicates = true
    std::uint64_t uncombined; //!< combineDuplicates = false
};

constexpr TimingPin kTimingPins[] = {
    {{1, 1, 4}, 0xc51fec279770b7e2ull, 0x35e70be941954377ull},
    {{2, 2, 4}, 0x8a5eb829c7fa60ddull, 0x671c3c87582eb667ull},
    {{3, 4, 8}, 0xc5f9216df602f5ccull, 0x3f2375a538a73645ull},
    {{4, 16, 16}, 0x1071823133f966d6ull, 0x5af1e2f04ee861eeull},
    {{6, 16, 64}, 0xc63279c4912f3df6ull, 0xfb84038a0128c8d7ull},
    {{2, 16, 2}, 0xe5051fd4cf6b3cd3ull, 0x4ac2f9ce9afb8357ull},
    {{5, 8, 32}, 0x1eaf02283ca34347ull, 0xe0f2be7ca610a923ull},
    {{3, 8, 4, 16}, 0x1eeddf5132efdb55ull, 0x08b9304d1eb6c158ull},
};

TEST_P(MergeTreeProperty, RootPopCyclesAndCountersArePinned)
{
    const TreeGeometry g = GetParam();
    const TimingPin *pin = nullptr;
    for (const TimingPin &p : kTimingPins) {
        if (p.geometry.layers == g.layers &&
            p.geometry.width == g.width && p.geometry.fifo == g.fifo &&
            p.geometry.finishLag == g.finishLag)
            pin = &p;
    }
    ASSERT_NE(pin, nullptr) << "no timing pin for this geometry";
    for (const bool combine : {true, false}) {
        MergeTreeConfig cfg;
        cfg.layers = g.layers;
        cfg.mergerWidth = g.width;
        cfg.fifoCapacity = g.fifo;
        cfg.combineDuplicates = combine;
        MergeTree tree(cfg);
        Rng rng(g.layers * 10000 + g.width * 100 + g.fifo);
        Rng consumer(rng.next());
        std::uint64_t digest = kFnvOffset;
        const auto add = [&digest](std::uint64_t word) {
            digest = fnv1a(&word, sizeof(word), digest);
        };
        for (int trial = 0; trial < 8; ++trial) {
            const unsigned count =
                1 + static_cast<unsigned>(
                        rng.nextBounded(1u << g.layers));
            const auto arrays = randomArrays(rng, count, 60);
            const auto pops =
                driveTree(tree, arrays, trial % 2 ? &consumer : nullptr,
                          g.finishLag);
            for (const RootPop &pop : pops) {
                add(pop.cycle);
                add(pop.element.coord);
                add(std::bit_cast<std::uint64_t>(pop.element.value));
            }
            add(pops.size());
        }
        add(tree.elementsMerged());
        add(tree.additions());
        add(tree.idleCycles());
        add(tree.fifoPushes());
        add(tree.fifoPops());
        EXPECT_EQ(digest, combine ? pin->combined : pin->uncombined)
            << std::hex << std::showbase << "combineDuplicates=" << combine
            << " digest " << digest;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, MergeTreeProperty,
    ::testing::Values(TreeGeometry{1, 1, 4}, TreeGeometry{2, 2, 4},
                      TreeGeometry{3, 4, 8}, TreeGeometry{4, 16, 16},
                      TreeGeometry{6, 16, 64}, TreeGeometry{2, 16, 2},
                      TreeGeometry{5, 8, 32}, TreeGeometry{3, 8, 4, 16}));

} // namespace
} // namespace hw
} // namespace sparch
