#include "matrix/rmat.hh"

#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"

namespace sparch
{

CsrMatrix
rmatGenerate(Index scale_vertices, Index edge_factor, std::uint64_t seed,
             const RmatParams &params)
{
    if (scale_vertices == 0)
        fatal("rmat: vertex count must be positive");
    const double prob_sum = params.a + params.b + params.c + params.d;
    if (std::abs(prob_sum - 1.0) > 1e-9)
        fatal("rmat: quadrant probabilities sum to ", prob_sum,
              ", expected 1");

    // Round up to a power of two for the recursive bisection, then map
    // edges back into [0, scale_vertices) by rejection.
    int levels = 0;
    while ((Index{1} << levels) < scale_vertices)
        ++levels;

    Rng rng(seed);
    const std::uint64_t target_edges =
        static_cast<std::uint64_t>(scale_vertices) * edge_factor;

    CooMatrix coo(scale_vertices, scale_vertices);
    coo.triplets().reserve(target_edges);

    std::uint64_t placed = 0;
    // Cap attempts so pathological parameters cannot loop forever.
    std::uint64_t attempts = 0;
    const std::uint64_t max_attempts = target_edges * 16 + 1024;
    while (placed < target_edges && attempts < max_attempts) {
        ++attempts;
        Index row = 0, col = 0;
        double a = params.a, b = params.b, c = params.c, d = params.d;
        for (int level = 0; level < levels; ++level) {
            const double r = rng.nextDouble();
            row <<= 1;
            col <<= 1;
            if (r < a) {
                // top-left quadrant: nothing to add
            } else if (r < a + b) {
                col |= 1;
            } else if (r < a + b + c) {
                row |= 1;
            } else {
                row |= 1;
                col |= 1;
            }
            if (params.smooth) {
                // Jitter the probabilities slightly per level, then
                // renormalize, as the Graph 500 reference does to avoid
                // perfectly self-similar artifacts.
                a *= 0.95 + 0.1 * rng.nextDouble();
                b *= 0.95 + 0.1 * rng.nextDouble();
                c *= 0.95 + 0.1 * rng.nextDouble();
                d *= 0.95 + 0.1 * rng.nextDouble();
                const double s = a + b + c + d;
                a /= s;
                b /= s;
                c /= s;
                d /= s;
            }
        }
        if (row >= scale_vertices || col >= scale_vertices)
            continue;
        coo.add(row, col, rng.nextDouble(0.5, 1.5));
        ++placed;
    }

    return CsrMatrix::fromCoo(std::move(coo), /*drop_zeros=*/true);
}

} // namespace sparch
