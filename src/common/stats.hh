/**
 * @file
 * Lightweight statistics registry, in the spirit of gem5's stats package.
 *
 * Hardware modules register named counters and scalars against a StatSet;
 * benches and tests read them back by name or dump the whole set. This
 * keeps instrumentation declarative and avoids ad-hoc printf plumbing
 * through the simulator.
 *
 * Every statistic is a count or a total (cycles, bytes, seconds), so
 * the sets of several runs — the shards of one sharded multiply, say —
 * combine by plain summation with merge(). A ratio such as a hit rate
 * is not stored; a reader derives it from the summed counts.
 */

#ifndef SPARCH_COMMON_STATS_HH
#define SPARCH_COMMON_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>

#include "common/logging.hh"

namespace sparch
{

/** A named collection of scalar statistics. */
class StatSet
{
  public:
    /** Increment (creating if absent) a counter. */
    void
    inc(const std::string &name, double amount = 1.0)
    {
        values_[name] += amount;
    }

    /** Overwrite a scalar value. */
    void
    set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    /** Read a value; zero if never touched. */
    double
    get(const std::string &name) const
    {
        auto it = values_.find(name);
        return it == values_.end() ? 0.0 : it->second;
    }

    /** True if the statistic was ever written. */
    bool
    has(const std::string &name) const
    {
        return values_.contains(name);
    }

    /** Merge another set into this one (summing shared names). */
    void
    merge(const StatSet &other)
    {
        for (const auto &[name, value] : other.values_)
            values_[name] += value;
    }

    /** Remove all statistics. */
    void clear() { values_.clear(); }

    /** All values, sorted by name (std::map ordering). */
    const std::map<std::string, double> &all() const { return values_; }

    /** Dump "name = value" lines, one per statistic. */
    void
    dump(std::ostream &os, const std::string &prefix = "") const
    {
        for (const auto &[name, value] : values_)
            os << prefix << name << " = " << value << "\n";
    }

  private:
    std::map<std::string, double> values_;
};

} // namespace sparch

#endif // SPARCH_COMMON_STATS_HH
