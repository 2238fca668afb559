#include "matrix/generators.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/random.hh"

namespace sparch
{

CsrMatrix
generateUniform(Index rows, Index cols, std::uint64_t nnz,
                std::uint64_t seed)
{
    if (rows == 0 || cols == 0)
        fatal("generateUniform: empty shape");
    Rng rng(seed);
    CooMatrix coo(rows, cols);
    coo.triplets().reserve(nnz);
    for (std::uint64_t i = 0; i < nnz; ++i) {
        coo.add(static_cast<Index>(rng.nextBounded(rows)),
                static_cast<Index>(rng.nextBounded(cols)),
                rng.nextDouble(0.5, 1.5));
    }
    return CsrMatrix::fromCoo(std::move(coo), /*drop_zeros=*/true);
}

CsrMatrix
generateBanded(Index n, Index bandwidth, double avg_row_nnz,
               std::uint64_t seed)
{
    if (n == 0)
        fatal("generateBanded: empty shape");
    if (bandwidth == 0)
        bandwidth = 1;
    Rng rng(seed);
    CooMatrix coo(n, n);

    // Band positions per row (excluding diagonal): up to 2*bandwidth.
    // Choose fill probability to hit avg_row_nnz including the diagonal.
    const double band_slots = 2.0 * static_cast<double>(bandwidth);
    const double fill = std::clamp((avg_row_nnz - 1.0) / band_slots,
                                   0.0, 1.0);

    for (Index r = 0; r < n; ++r) {
        coo.add(r, r, rng.nextDouble(1.0, 2.0));
        const Index lo = r > bandwidth ? r - bandwidth : 0;
        const Index hi = std::min<Index>(n - 1, r + bandwidth);
        for (Index c = lo; c <= hi; ++c) {
            if (c != r && rng.nextBool(fill))
                coo.add(r, c, rng.nextDouble(-1.0, 1.0));
        }
    }
    return CsrMatrix::fromCoo(std::move(coo), /*drop_zeros=*/true);
}

CsrMatrix
generatePowerLaw(Index n, double avg_degree, double exponent,
                 std::uint64_t seed)
{
    if (n == 0)
        fatal("generatePowerLaw: empty shape");
    Rng rng(seed);
    CooMatrix coo(n, n);

    // Degree of vertex v is proportional to (v+1)^-exponent, scaled so
    // the average matches avg_degree.
    double norm = 0.0;
    for (Index v = 0; v < n; ++v)
        norm += std::pow(static_cast<double>(v) + 1.0, -exponent);
    const double scale = avg_degree * static_cast<double>(n) / norm;

    const std::uint64_t target =
        static_cast<std::uint64_t>(avg_degree * static_cast<double>(n));
    coo.triplets().reserve(target);

    for (Index v = 0; v < n; ++v) {
        const double want =
            scale * std::pow(static_cast<double>(v) + 1.0, -exponent);
        Index degree = static_cast<Index>(want);
        if (rng.nextBool(want - static_cast<double>(degree)))
            ++degree;
        degree = std::min<Index>(degree, n);
        for (Index e = 0; e < degree; ++e) {
            // Preferential attachment approximated by squaring a
            // uniform variate, biasing towards low ids (the hubs).
            const double u = rng.nextDouble();
            const Index target_v = static_cast<Index>(
                u * u * static_cast<double>(n));
            coo.add(v, std::min<Index>(target_v, n - 1),
                    rng.nextDouble(0.5, 1.5));
        }
    }
    return CsrMatrix::fromCoo(std::move(coo), /*drop_zeros=*/true);
}

CsrMatrix
generateBlockDiagonal(Index n, Index block_size, double avg_row_nnz,
                      double locality, std::uint64_t seed)
{
    if (n == 0)
        fatal("generateBlockDiagonal: empty shape");
    if (block_size == 0 || block_size > n)
        block_size = n;
    Rng rng(seed);
    CooMatrix coo(n, n);

    for (Index r = 0; r < n; ++r) {
        const Index block = r / block_size;
        const Index block_lo = block * block_size;
        const Index block_hi = std::min<Index>(block_lo + block_size, n);
        Index degree = static_cast<Index>(avg_row_nnz);
        if (rng.nextBool(avg_row_nnz - std::floor(avg_row_nnz)))
            ++degree;
        for (Index e = 0; e < degree; ++e) {
            Index c;
            if (rng.nextBool(locality)) {
                c = block_lo + static_cast<Index>(rng.nextBounded(
                        block_hi - block_lo));
            } else {
                c = static_cast<Index>(rng.nextBounded(n));
            }
            coo.add(r, c, rng.nextDouble(-1.0, 1.0));
        }
    }
    return CsrMatrix::fromCoo(std::move(coo), /*drop_zeros=*/true);
}

CsrMatrix
generateRoadNetwork(Index n, std::uint64_t seed)
{
    if (n == 0)
        fatal("generateRoadNetwork: empty shape");
    Rng rng(seed);
    CooMatrix coo(n, n);
    for (Index r = 0; r < n; ++r) {
        const Index degree = 2 + static_cast<Index>(rng.nextBounded(3));
        for (Index e = 0; e < degree; ++e) {
            // Neighbours live within a window of +-32 ids, wrapping.
            const std::int64_t offset =
                static_cast<std::int64_t>(rng.nextBounded(65)) - 32;
            std::int64_t c = static_cast<std::int64_t>(r) + offset;
            if (c < 0)
                c += n;
            if (c >= static_cast<std::int64_t>(n))
                c -= n;
            if (static_cast<Index>(c) != r)
                coo.add(r, static_cast<Index>(c), rng.nextDouble(0.5, 1.5));
        }
    }
    return CsrMatrix::fromCoo(std::move(coo), /*drop_zeros=*/true);
}

} // namespace sparch
