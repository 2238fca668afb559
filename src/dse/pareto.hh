/**
 * @file
 * Streaming Pareto-frontier filter over surrogate objectives.
 *
 * The surrogate tier scores every grid point on (cycles, energy, DRAM
 * traffic); only points on the Pareto frontier of those three
 * minimization objectives graduate to the cycle-accurate tier. The
 * filter is streaming — offer() one point at a time, in grid-id
 * order — and maintains the invariant that the archive never contains
 * a point another archived point strictly dominates.
 *
 * Correctness property (pinned by tests/test_dse.cc): a dropped point
 * never dominates a kept one. offer() removes everything the incoming
 * point strictly dominates *before* testing the point against the
 * survivors, so dominance chains always resolve toward the frontier;
 * the top-K cap is applied only at survivors() time (never by evicting
 * mid-stream), and a frontier is dominance-free by construction, so
 * the property survives the cap as well.
 */

#ifndef SPARCH_DSE_PARETO_HH
#define SPARCH_DSE_PARETO_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sparch
{
namespace dse
{

/** Objectives per point; all minimized. */
constexpr std::size_t kParetoObjectives = 3;

/** One archived grid point. */
struct ParetoPoint
{
    /** Grid id of the point (the BatchRunner task id). */
    std::size_t id = 0;
    /** (cycles, energy J, DRAM bytes) — any nonnegative triple. */
    std::array<double, kParetoObjectives> objectives{};
};

/**
 * Streaming exact Pareto archive. An archived point a blocks an
 * incoming point p when a <= p in every objective, so duplicates
 * resolve to the earliest id.
 */
class ParetoFilter
{
  public:
    /**
     * Offer one point. Returns true when it entered the archive
     * (possibly evicting dominated points), false when an existing
     * point weakly dominates it.
     */
    bool offer(std::size_t id,
               const std::array<double, kParetoObjectives> &objectives);

    /** Points offered so far. */
    std::size_t offered() const { return offered_; }

    /** Current archive size. */
    std::size_t size() const { return archive_.size(); }

    /**
     * The surviving points, sorted by grid id. keep == 0 returns the
     * whole frontier; otherwise at most `keep` points, chosen by the
     * scale-free product scalarization sum(log1p(objective)) with ids
     * breaking ties, so the selection is deterministic and favors
     * balanced points over single-objective extremes.
     */
    std::vector<ParetoPoint> survivors(std::size_t keep = 0) const;

  private:
    std::size_t offered_ = 0;
    std::vector<ParetoPoint> archive_;
};

} // namespace dse
} // namespace sparch

#endif // SPARCH_DSE_PARETO_HH
