/**
 * @file
 * Test helper: two simulations measured exactly the same. A
 * count-only multiply (ProductMode::Count) must agree with the multiply
 * that builds the product on every figure it reports; only the product
 * matrix itself may differ.
 */

#ifndef SPARCH_TESTS_EXPECT_MEASUREMENTS_HH
#define SPARCH_TESTS_EXPECT_MEASUREMENTS_HH

#include <gtest/gtest.h>

#include "core/sparch_simulator.hh"

namespace sparch
{

/** Every field of SpArchResult but `result`, compared exactly. */
inline void
expectSameMeasurements(const SpArchResult &expect, const SpArchResult &got)
{
    EXPECT_EQ(expect.resultNnz, got.resultNnz);
    EXPECT_EQ(expect.cycles, got.cycles);
    EXPECT_EQ(expect.seconds, got.seconds);
    EXPECT_EQ(expect.flops, got.flops);
    EXPECT_EQ(expect.gflops, got.gflops);
    EXPECT_EQ(expect.bytesMatA, got.bytesMatA);
    EXPECT_EQ(expect.bytesMatB, got.bytesMatB);
    EXPECT_EQ(expect.bytesPartialRead, got.bytesPartialRead);
    EXPECT_EQ(expect.bytesPartialWrite, got.bytesPartialWrite);
    EXPECT_EQ(expect.bytesFinalWrite, got.bytesFinalWrite);
    EXPECT_EQ(expect.bytesTotal, got.bytesTotal);
    EXPECT_EQ(expect.bandwidthUtilization, got.bandwidthUtilization);
    EXPECT_EQ(expect.multiplies, got.multiplies);
    EXPECT_EQ(expect.additions, got.additions);
    EXPECT_EQ(expect.prefetchHitRate, got.prefetchHitRate);
    EXPECT_EQ(expect.partialMatrices, got.partialMatrices);
    EXPECT_EQ(expect.mergeRounds, got.mergeRounds);
    EXPECT_EQ(expect.stats.all(), got.stats.all());
}

/**
 * `counted` is the count-only run of the multiply `built` made with the
 * product: the same measurements, the count equal to the built
 * product's nonzeros, and no product matrix.
 */
inline void
expectCountMatchesBuild(const SpArchResult &built,
                        const SpArchResult &counted)
{
    expectSameMeasurements(built, counted);
    EXPECT_EQ(built.resultNnz, built.result.nnz());
    EXPECT_EQ(counted.result.rows(), 0u);
    EXPECT_EQ(counted.result.cols(), 0u);
    EXPECT_EQ(counted.result.nnz(), 0u);
}

} // namespace sparch

#endif // SPARCH_TESTS_EXPECT_MEASUREMENTS_HH
