/**
 * @file
 * hw::SimKernel's next-event skip on stand-in modules: a quiet span
 * ends exactly at the earliest module event, the per-cycle state after
 * it is what ticking through it gives, and a round with no event left
 * reaches its cycle cap in one jump.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hw/clocked.hh"

namespace sparch
{
namespace
{

/**
 * Makes progress at each of a fixed list of cycles and nowhere else,
 * and counts the cycles in which it made none. The two knobs make it
 * misreport: `report_lag` delays every event it reports, and
 * `skip_extra` has skipped(k) count that many quiet cycles too many.
 */
class Timer final
{
  public:
    Timer(std::string name, std::vector<Cycle> events,
          Cycle report_lag = 0, std::uint64_t skip_extra = 0)
        : name_(std::move(name)), events_(std::move(events)),
          report_lag_(report_lag), skip_extra_(skip_extra)
    {}

    bool
    clockUpdate(Cycle now)
    {
        if (next_ < events_.size() && now >= events_[next_]) {
            fired_at_.push_back(now);
            ++next_;
            return true;
        }
        ++quiet_cycles_;
        return false;
    }

    Cycle
    nextEventCycle(Cycle) const
    {
        return next_ < events_.size() ? events_[next_] + report_lag_
                                      : hw::kNoEvent;
    }

    std::uint64_t
    skipped(Cycle k) const
    {
        return quiet_cycles_ + k + (k > 0 ? skip_extra_ : 0);
    }

    void skip(Cycle k) { quiet_cycles_ = skipped(k); }

    void
    recordStats(StatSet &stats) const
    {
        stats.set(name_ + ".quiet_cycles",
                  static_cast<double>(quiet_cycles_));
    }

    bool allFired() const { return next_ == events_.size(); }
    const std::vector<Cycle> &firedAt() const { return fired_at_; }

  private:
    std::string name_;
    std::vector<Cycle> events_;
    Cycle report_lag_;
    std::uint64_t skip_extra_;
    std::size_t next_ = 0;
    std::uint64_t quiet_cycles_ = 0;
    std::vector<Cycle> fired_at_;
};

TEST(SimKernel, QuietSpansEndAtTheEarliestModuleEvent)
{
    Timer early("early", {5, 6, 1000});
    Timer late("late", {40});
    hw::SimKernel<Timer, Timer> kernel(early, late);
    ASSERT_TRUE(kernel.run(
        [&](Cycle) { return early.allFired() && late.allFired(); },
        1u << 20));

    EXPECT_EQ(early.firedAt(), (std::vector<Cycle>{5, 6, 1000}));
    EXPECT_EQ(late.firedAt(), (std::vector<Cycle>{40}));
    EXPECT_EQ(kernel.now(), 1001u);

    StatSet stats;
    kernel.recordStats(stats);
    // Ticked: 0 (quiet), 5, 6, 7 (quiet), 40, 41 (quiet), 1000.
    // Jumped: 1-4, 8-39 and 42-999.
    EXPECT_EQ(stats.get("kernel.skipped_cycles"), 4 + 32 + 958);
    EXPECT_EQ(stats.get("kernel.skip_spans"), 3);
    // Each timer counts every cycle it did not fire in, ticked or not.
    EXPECT_EQ(stats.get("early.quiet_cycles"), 1001 - 3);
    EXPECT_EQ(stats.get("late.quiet_cycles"), 1001 - 1);
}

TEST(SimKernel, RoundWithoutEventsJumpsToItsCycleCap)
{
    Timer idle("idle", {});
    hw::SimKernel<Timer> kernel(idle);
    const Cycle cap = 1u << 20;
    EXPECT_FALSE(kernel.run([](Cycle) { return false; }, cap));
    EXPECT_EQ(kernel.now(), cap);

    StatSet stats;
    kernel.recordStats(stats);
    EXPECT_EQ(stats.get("kernel.skipped_cycles"), cap - 1);
    EXPECT_EQ(stats.get("kernel.skip_spans"), 1);
    EXPECT_EQ(stats.get("idle.quiet_cycles"), cap);
}

// Release builds trust the modules' reports; SPARCH_DCHECK builds tick
// through every span and reject a report that does not hold.
TEST(SimKernel, MisreportedSpansPanicUnderDcheck)
{
    Timer late_report("late_report", {10}, /*report_lag=*/5);
    hw::SimKernel<Timer> lagging(late_report);
    const auto run_lagging = [&] {
        return lagging.run(
            [&](Cycle) { return late_report.allFired(); }, 100);
    };
    Timer overcount("overcount", {10}, 0, /*skip_extra=*/1);
    hw::SimKernel<Timer> skewed(overcount);
    const auto run_skewed = [&] {
        return skewed.run([&](Cycle) { return overcount.allFired(); },
                          100);
    };
    if (SPARCH_DCHECK_IS_ON) {
        EXPECT_THROW(run_lagging(), PanicError);
        EXPECT_THROW(run_skewed(), PanicError);
    } else {
        ASSERT_TRUE(run_lagging());
        EXPECT_EQ(late_report.firedAt(), (std::vector<Cycle>{15}));
        ASSERT_TRUE(run_skewed());
        StatSet stats;
        skewed.recordStats(stats);
        EXPECT_EQ(stats.get("overcount.quiet_cycles"), 10 + 1);
    }
}

} // namespace
} // namespace sparch
