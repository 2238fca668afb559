#include "dse/pareto.hh"

#include <algorithm>
#include <cmath>

namespace sparch
{
namespace dse
{

namespace
{

using Objectives = std::array<double, kParetoObjectives>;

/** a <= b everywhere and < somewhere (strict Pareto dominance). */
bool
dominates(const Objectives &a, const Objectives &b)
{
    bool strict = false;
    for (std::size_t k = 0; k < kParetoObjectives; ++k) {
        if (a[k] > b[k])
            return false;
        if (a[k] < b[k])
            strict = true;
    }
    return strict;
}

/** a <= b everywhere (weak dominance). */
bool
weaklyDominates(const Objectives &a, const Objectives &b)
{
    for (std::size_t k = 0; k < kParetoObjectives; ++k)
        if (a[k] > b[k])
            return false;
    return true;
}

/** Scale-free ranking score: the log of the objective product. */
double
scalarize(const Objectives &o)
{
    double score = 0.0;
    for (double v : o)
        score += std::log1p(v);
    return score;
}

} // namespace

bool
ParetoFilter::offer(std::size_t id, const Objectives &objectives)
{
    ++offered_;
    // Evict strictly dominated points FIRST: if the incoming point is
    // later blocked, its blocker (weakly) dominates everything it just
    // evicted, so a dropped point can never dominate a survivor.
    archive_.erase(
        std::remove_if(archive_.begin(), archive_.end(),
                       [&](const ParetoPoint &p) {
                           return dominates(objectives, p.objectives);
                       }),
        archive_.end());
    for (const ParetoPoint &p : archive_)
        if (weaklyDominates(p.objectives, objectives))
            return false;
    archive_.push_back({id, objectives});
    return true;
}

std::vector<ParetoPoint>
ParetoFilter::survivors(std::size_t keep) const
{
    std::vector<ParetoPoint> out = archive_;
    if (keep > 0 && out.size() > keep) {
        std::sort(out.begin(), out.end(),
                  [](const ParetoPoint &a, const ParetoPoint &b) {
                      const double sa = scalarize(a.objectives);
                      const double sb = scalarize(b.objectives);
                      if (sa != sb)
                          return sa < sb;
                      return a.id < b.id;
                  });
        out.resize(keep);
    }
    std::sort(out.begin(), out.end(),
              [](const ParetoPoint &a, const ParetoPoint &b) {
                  return a.id < b.id;
              });
    return out;
}

} // namespace dse
} // namespace sparch
