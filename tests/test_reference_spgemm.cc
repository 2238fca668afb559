/**
 * @file
 * Cross-validation of the reference SpGEMM algorithms: the hash
 * accumulator must compute the golden dense-accumulator product, and
 * their operation counts must be consistent.
 */

#include <gtest/gtest.h>

#include "common/logging.hh"
#include "matrix/generators.hh"
#include "matrix/reference_spgemm.hh"
#include "matrix/rmat.hh"

namespace sparch
{
namespace
{

struct SpgemmCase
{
    const char *name;
    CsrMatrix a;
    CsrMatrix b;
};

SpgemmCase
makeCase(int which)
{
    switch (which) {
      case 0:
        return {"uniform_square", generateUniform(120, 120, 900, 1),
                generateUniform(120, 120, 900, 2)};
      case 1:
        return {"square_of_self", generateUniform(150, 150, 1100, 3),
                generateUniform(150, 150, 1100, 3)};
      case 2:
        return {"rectangular", generateUniform(80, 150, 700, 4),
                generateUniform(150, 60, 800, 5)};
      case 3:
        return {"banded", generateBanded(200, 5, 4.0, 6),
                generateBanded(200, 5, 4.0, 7)};
      case 4:
        return {"power_law", rmatGenerate(128, 6, 8),
                rmatGenerate(128, 6, 9)};
      case 5:
        return {"hypersparse", generateUniform(400, 400, 150, 10),
                generateUniform(400, 400, 150, 11)};
      case 6:
        return {"empty_a", CsrMatrix(50, 60),
                generateUniform(60, 40, 300, 12)};
      case 7:
        return {"empty_b", generateUniform(50, 60, 300, 13),
                CsrMatrix(60, 40)};
      default:
        panic("bad case");
    }
}

class SpgemmAgreement : public ::testing::TestWithParam<int>
{};

TEST_P(SpgemmAgreement, AllAlgorithmsAgree)
{
    const SpgemmCase c = makeCase(GetParam());
    const CsrMatrix golden = spgemmDenseAccumulator(c.a, c.b);

    EXPECT_TRUE(spgemmHash(c.a, c.b).almostEqual(golden)) << c.name;
}

TEST_P(SpgemmAgreement, MultiplyCountsMatchFlops)
{
    const SpgemmCase c = makeCase(GetParam());
    const std::uint64_t flops = c.a.multiplyFlops(c.b);

    SpgemmCounts counts;
    spgemmDenseAccumulator(c.a, c.b, &counts);
    EXPECT_EQ(counts.multiplies, flops);
    EXPECT_EQ(counts.outputNnz,
              counts.multiplies - counts.additions);

    SpgemmCounts hash_counts;
    spgemmHash(c.a, c.b, &hash_counts);
    EXPECT_EQ(hash_counts.multiplies, flops);
    EXPECT_EQ(hash_counts.additions, counts.additions);
    EXPECT_EQ(hash_counts.outputNnz, counts.outputNnz);
}

INSTANTIATE_TEST_SUITE_P(Cases, SpgemmAgreement,
                         ::testing::Range(0, 8));

TEST(Spgemm, DimensionMismatchIsFatal)
{
    const CsrMatrix a(3, 4);
    const CsrMatrix b(5, 3);
    EXPECT_THROW(spgemmDenseAccumulator(a, b), FatalError);
    EXPECT_THROW(spgemmHash(a, b), FatalError);
}

TEST(Spgemm, IdentityTimesMatrixIsMatrix)
{
    CooMatrix eye(64, 64);
    for (Index i = 0; i < 64; ++i)
        eye.add(i, i, 1.0);
    eye.canonicalize();
    const CsrMatrix identity = CsrMatrix::fromCoo(eye);
    const CsrMatrix m = generateUniform(64, 64, 500, 40);
    EXPECT_TRUE(spgemmDenseAccumulator(identity, m).almostEqual(m));
    EXPECT_TRUE(spgemmDenseAccumulator(m, identity).almostEqual(m));
}

} // namespace
} // namespace sparch
