/**
 * @file
 * Tests for the distance-list builder.
 */

#include <cstdint>
#include <utility>

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "core/distance_list.hh"

namespace sparch
{
namespace
{

TEST(DistanceList, NextUseIsEarliestRecordedPosition)
{
    DistanceList d;
    d.noteUse(5, 10);
    d.noteUse(5, 20);
    d.noteUse(9, 15);
    EXPECT_EQ(d.nextUse(5), 10u);
    EXPECT_EQ(d.nextUse(9), 15u);
    EXPECT_EQ(d.nextUse(7), DistanceList::kInfinite);
}

TEST(DistanceList, ConsumeAdvancesToNextUse)
{
    DistanceList d;
    d.noteUse(3, 1);
    d.noteUse(3, 4);
    d.noteUse(3, 9);
    d.consumeUse(3, 1);
    EXPECT_EQ(d.nextUse(3), 4u);
    d.consumeUse(3, 4);
    EXPECT_EQ(d.nextUse(3), 9u);
    d.consumeUse(3, 9);
    EXPECT_EQ(d.nextUse(3), DistanceList::kInfinite);
}

TEST(DistanceList, OutOfOrderConsumeRemovesMidQueueUse)
{
    // Ports retire independently, so a later use can retire first.
    DistanceList d;
    d.noteUse(3, 1);
    d.noteUse(3, 4);
    d.noteUse(3, 9);
    d.consumeUse(3, 4);
    EXPECT_EQ(d.nextUse(3), 1u);
    d.consumeUse(3, 1);
    EXPECT_EQ(d.nextUse(3), 9u);
}

TEST(DistanceList, NotingOutOfOrderPositionsPanics)
{
    DistanceList d;
    d.noteUse(2, 10);
    EXPECT_THROW(d.noteUse(2, 5), PanicError);
}

TEST(DistanceList, ConsumingUnknownUsePanics)
{
    DistanceList d;
    EXPECT_THROW(d.consumeUse(1, 0), PanicError);
    d.noteUse(1, 3);
    EXPECT_THROW(d.consumeUse(1, 7), PanicError);
}

TEST(DistanceList, ClearDropsEverything)
{
    DistanceList d;
    d.noteUse(1, 0);
    d.noteUse(2, 1);
    EXPECT_EQ(d.trackedRows(), 2u);
    d.clear();
    EXPECT_EQ(d.trackedRows(), 0u);
    EXPECT_EQ(d.nextUse(1), DistanceList::kInfinite);
}

TEST(DistanceList, GrownTableReadsUntouchedRowsAsNeverSeen)
{
    // reset() sizes the table for a small B, then for a larger one:
    // the first round's rows are stale and the grown tail is zero-
    // filled. Both must read as never seen, and the next round must
    // play out exactly as on a fresh list.
    DistanceList d;
    d.reset(8);
    d.noteUse(3, 0);
    d.noteUse(7, 1);
    d.noteUse(3, 2);
    d.reset(4096);
    EXPECT_EQ(d.trackedRows(), 0u);
    for (Index row : {0u, 3u, 7u, 8u, 1000u, 4095u})
        EXPECT_EQ(d.nextUse(row), DistanceList::kInfinite) << row;
    EXPECT_THROW(d.consumeUse(3, 0), PanicError);

    DistanceList fresh;
    fresh.reset(4096);
    const std::pair<Index, std::uint64_t> uses[] = {
        {3, 10}, {4000, 11}, {3, 12}, {8, 13}, {4000, 14}};
    for (const auto &[row, pos] : uses) {
        d.noteUse(row, pos);
        fresh.noteUse(row, pos);
    }
    d.consumeUse(3, 10);
    fresh.consumeUse(3, 10);
    d.consumeUse(4000, 14);
    fresh.consumeUse(4000, 14);
    for (Index row : {3u, 7u, 8u, 4000u})
        EXPECT_EQ(d.nextUse(row), fresh.nextUse(row)) << row;
    EXPECT_EQ(d.trackedRows(), fresh.trackedRows());
}

TEST(DistanceList, LiveQueuesSurviveLazyGrowth)
{
    // A standalone list grows its table mid-round, on demand; queues
    // recorded before the growth must carry over intact.
    DistanceList d;
    d.noteUse(3, 1);
    d.noteUse(3, 5);
    d.noteUse(100000, 2);
    EXPECT_EQ(d.nextUse(3), 1u);
    EXPECT_EQ(d.nextUse(100000), 2u);
    EXPECT_EQ(d.nextUse(99999), DistanceList::kInfinite);
    d.consumeUse(3, 1);
    EXPECT_EQ(d.nextUse(3), 5u);
    EXPECT_EQ(d.trackedRows(), 2u);
}

} // namespace
} // namespace sparch
