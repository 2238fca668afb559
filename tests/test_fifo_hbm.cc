/**
 * @file
 * Tests for the hardware FIFO model and the HBM channel model.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "common/random.hh"
#include "hw/fifo.hh"
#include "mem/hbm_backend.hh"

namespace sparch
{
namespace
{

TEST(Fifo, BasicPushPopOrder)
{
    hw::Fifo<int> f(3);
    f.push(1);
    f.push(2);
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(f.front(), 1);
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_TRUE(f.empty());
}

TEST(Fifo, TracksStatistics)
{
    hw::Fifo<int> f(4);
    f.push(1);
    f.push(2);
    f.push(3);
    f.pop();
    EXPECT_EQ(f.pushes(), 3u);
    EXPECT_EQ(f.pops(), 1u);
    EXPECT_EQ(f.highWater(), 3u);
    EXPECT_EQ(f.freeSpace(), 2u);
}

// Capacity validation is configuration checking: a hard SPARCH_ASSERT
// in every build type, not part of the SPARCH_DCHECK tier.
TEST(Fifo, ZeroCapacityPanicsInEveryBuild)
{
    EXPECT_THROW(hw::Fifo<int>(0), PanicError);
}

#if SPARCH_DCHECK_IS_ON

// Misuse of the FIFO protocol (over-push, over-pop, peeking empty) is
// guarded by SPARCH_DCHECK: enforced in debug/sanitizer builds...
TEST(Fifo, OverflowAndUnderflowPanic)
{
    hw::Fifo<int> f(1);
    f.push(1);
    EXPECT_TRUE(f.full());
    EXPECT_THROW(f.push(2), PanicError);
    f.pop();
    EXPECT_THROW(f.pop(), PanicError);
}

TEST(Fifo, CapacityOneEdgeCases)
{
    hw::Fifo<int> f(1);
    EXPECT_TRUE(f.empty());
    EXPECT_THROW(f.front(), PanicError);
    EXPECT_THROW(f.back(), PanicError);
    f.push(7);
    EXPECT_TRUE(f.full());
    EXPECT_EQ(f.freeSpace(), 0u);
    EXPECT_THROW(f.push(8), PanicError);
    EXPECT_EQ(f.pop(), 7);
    EXPECT_THROW(f.pop(), PanicError);
    // The failed operations must not have corrupted the statistics.
    EXPECT_EQ(f.pushes(), 1u);
    EXPECT_EQ(f.pops(), 1u);
    EXPECT_EQ(f.highWater(), 1u);
}

TEST(Fifo, PushFullLeavesContentsIntact)
{
    hw::Fifo<int> f(2);
    f.push(1);
    f.push(2);
    EXPECT_THROW(f.push(3), PanicError);
    EXPECT_EQ(f.size(), 2u);
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
}

#endif // SPARCH_DCHECK_IS_ON

// The storage is a fixed ring: pushes and pops wrap around the buffer
// without allocating, and FIFO order survives arbitrary interleaving
// across the wrap point.
TEST(Fifo, RingWrapsAroundPreservingOrder)
{
    hw::Fifo<int> f(3);
    int next_in = 0, next_out = 0;
    for (int round = 0; round < 7; ++round) {
        while (!f.full())
            f.push(next_in++);
        // Drain two, refill: head walks around the ring.
        for (int i = 0; i < 2; ++i) {
            ASSERT_EQ(f.front(), next_out);
            ASSERT_EQ(f.pop(), next_out++);
        }
    }
    while (!f.empty())
        ASSERT_EQ(f.pop(), next_out++);
    EXPECT_EQ(next_in, next_out);
}

TEST(Fifo, ClearResetsOccupancyButKeepsLifetimeCounters)
{
    hw::Fifo<int> f(2);
    f.push(1);
    f.push(2);
    f.clear();
    EXPECT_TRUE(f.empty());
    EXPECT_EQ(f.freeSpace(), 2u);
    f.push(9);
    EXPECT_EQ(f.front(), 9);
    EXPECT_EQ(f.pushes(), 3u);
    EXPECT_EQ(f.highWater(), 2u);
}

TEST(Fifo, BackIsMutable)
{
    hw::Fifo<int> f(2);
    f.push(5);
    f.back() += 3;
    EXPECT_EQ(f.pop(), 8);
}

// Bulk movers write and read the ring directly and commit whole
// batches: any run of commitPushes/commitPops across the ring wrap
// must leave the FIFO exactly as the same single push()/pop() calls.
TEST(Fifo, BulkCommitsMatchSinglePushPop)
{
    for (const std::size_t capacity : {1, 2, 64}) {
        hw::Fifo<int> bulk(capacity);
        hw::Fifo<int> single(capacity);
        Rng rng(capacity * 2);
        int next_in = 0;
        for (int step = 0; step < 400; ++step) {
            if (rng.nextBool(0.5)) {
                const std::size_t n = rng.nextBounded(bulk.freeSpace() + 1);
                int *ring = bulk.ringData();
                std::size_t slot = bulk.tailSlot();
                for (std::size_t i = 0; i < n; ++i) {
                    ring[slot] = next_in;
                    if (++slot == capacity)
                        slot = 0;
                    single.push(next_in++);
                }
                bulk.commitPushes(n);
            } else {
                const std::size_t n = rng.nextBounded(bulk.size() + 1);
                const int *ring = bulk.ringData();
                std::size_t slot = bulk.headSlot();
                for (std::size_t i = 0; i < n; ++i) {
                    ASSERT_EQ(ring[slot], single.pop());
                    if (++slot == capacity)
                        slot = 0;
                }
                bulk.commitPops(n);
            }
            ASSERT_EQ(bulk.size(), single.size());
            if (!single.empty()) {
                ASSERT_EQ(bulk.front(), single.front());
                ASSERT_EQ(bulk.back(), single.back());
            }
            ASSERT_EQ(bulk.pushes(), single.pushes());
            ASSERT_EQ(bulk.pops(), single.pops());
            ASSERT_EQ(bulk.highWater(), single.highWater());
        }
        // The head went round the ring several times.
        EXPECT_GT(single.pops(), 4 * capacity)
            << "capacity " << capacity;
    }
}

TEST(Hbm, AccountsBytesPerStream)
{
    mem::HbmBackend hbm;
    hbm.read(DramStream::MatA, 0, 120, 0);
    hbm.write(DramStream::PartialWrite, 4096, 240, 0);
    EXPECT_EQ(hbm.streamBytes(DramStream::MatA), 120u);
    EXPECT_EQ(hbm.streamBytes(DramStream::PartialWrite), 240u);
    EXPECT_EQ(hbm.streamBytes(DramStream::MatB), 0u);
    EXPECT_EQ(hbm.totalBytes(), 360u);
    EXPECT_EQ(hbm.totalReadBytes(), 120u);
    EXPECT_EQ(hbm.totalWriteBytes(), 240u);
}

TEST(Hbm, ReadsPayAccessLatency)
{
    mem::HbmConfig cfg;
    cfg.accessLatency = 50;
    mem::HbmBackend hbm(cfg);
    const Cycle done = hbm.read(DramStream::MatB, 0, 8, 0);
    // One 8-byte beat takes 1 cycle plus the latency.
    EXPECT_EQ(done, 51u);
}

TEST(Hbm, BandwidthLimitsBackToBackRequests)
{
    mem::HbmConfig cfg;
    cfg.channels = 1;
    cfg.accessLatency = 0;
    cfg.bytesPerCyclePerChannel = 8;
    cfg.interleaveBytes = 64;
    mem::HbmBackend hbm(cfg);
    // 64 bytes on one channel at 8 B/cycle = 8 cycles.
    EXPECT_EQ(hbm.read(DramStream::MatA, 0, 64, 0), 8u);
    // The channel is busy; the next read queues behind it.
    EXPECT_EQ(hbm.read(DramStream::MatA, 0, 64, 0), 16u);
}

TEST(Hbm, StripingUsesAllChannels)
{
    mem::HbmConfig cfg;
    cfg.channels = 16;
    cfg.accessLatency = 0;
    mem::HbmBackend hbm(cfg);
    // A 1024-byte transfer striped over 16 channels of 64B chunks:
    // each channel moves 64 bytes = 8 cycles, all in parallel.
    EXPECT_EQ(hbm.read(DramStream::MatA, 0, 1024, 0), 8u);
}

TEST(Hbm, UnalignedRequestsSplitAtInterleaveBoundary)
{
    mem::HbmConfig cfg;
    cfg.channels = 2;
    cfg.accessLatency = 0;
    mem::HbmBackend hbm(cfg);
    // 8 bytes starting at offset 60 spans two 64B chunks -> two
    // channels, 1 cycle each in parallel.
    EXPECT_EQ(hbm.read(DramStream::MatA, 60, 8, 0), 1u);
    EXPECT_EQ(hbm.totalBytes(), 8u);
}

TEST(Hbm, UtilizationIsBytesOverPeak)
{
    mem::HbmBackend hbm;
    // Peak is 16 channels x 8 B/cycle = 128 B/cycle.
    hbm.write(DramStream::FinalWrite, 0, 1280, 0);
    EXPECT_DOUBLE_EQ(hbm.utilization(100), 0.1);
    EXPECT_DOUBLE_EQ(hbm.utilization(0), 0.0);
}

TEST(Hbm, ResetClearsState)
{
    mem::HbmBackend hbm;
    hbm.read(DramStream::MatA, 0, 512, 0);
    hbm.reset();
    EXPECT_EQ(hbm.totalBytes(), 0u);
    EXPECT_EQ(hbm.read(DramStream::MatA, 0, 8, 0),
              1 + hbm.config().accessLatency);
}

TEST(Hbm, ZeroByteAccessIsFree)
{
    mem::HbmBackend hbm;
    EXPECT_EQ(hbm.read(DramStream::MatA, 0, 0, 7), 7u);
    EXPECT_EQ(hbm.totalBytes(), 0u);
}

TEST(Hbm, RecordsStats)
{
    mem::HbmBackend hbm;
    hbm.read(DramStream::MatB, 0, 96, 0);
    StatSet stats;
    hbm.recordStats(stats);
    EXPECT_DOUBLE_EQ(stats.get("dram.bytes.mat_b"), 96.0);
    EXPECT_DOUBLE_EQ(stats.get("dram.bytes.total"), 96.0);
}

TEST(Hbm, InvalidConfigPanics)
{
    mem::HbmConfig cfg;
    cfg.channels = 0;
    EXPECT_THROW(mem::HbmBackend{cfg}, PanicError);
}

} // namespace
} // namespace sparch
