/**
 * @file
 * Seeded decision sequences for deterministic concurrency testing.
 *
 * The lincheck-style shape: a Schedule is a pseudo-random decision
 * stream derived from one 64-bit seed. Stress scenarios draw every
 * nondeterministic choice they make (which worker to kill, after how
 * many records, whether to flush) from the schedule, so a failing
 * interleaving is reproduced bit-exactly by re-running the same seed —
 * the decision trace is a pure function of the seed, independent of OS
 * thread timing.
 *
 * Two kinds of sites consume a schedule:
 *
 *  - Scenario decisions (`draw`/`pick`/`decide`): one stream per
 *    logical actor slot. Each slot's sequence depends only on (seed,
 *    slot, draw index), never on cross-thread interleaving, and every
 *    draw is recorded in the replayable trace.
 *
 *  - Schedule points (`SPARCH_SCHEDULE_POINT`): lightweight hooks
 *    compiled into the concurrency layer (ThreadPool, the process
 *    pool's requeue/flush paths, ResultCache). When a schedule is
 *    active they inject seeded timing perturbation (yields and short
 *    spins) to shake out interleavings; when none is active they cost
 *    one relaxed atomic load.
 */

#ifndef SPARCH_CHECK_SCHEDULE_HH
#define SPARCH_CHECK_SCHEDULE_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace sparch
{
namespace check
{

/** One seeded, replayable decision sequence. */
class Schedule
{
  public:
    /** Independent decision streams available to a scenario. */
    static constexpr unsigned kMaxSlots = 64;

    explicit Schedule(std::uint64_t seed);

    Schedule(const Schedule &) = delete;
    Schedule &operator=(const Schedule &) = delete;

    std::uint64_t seed() const { return seed_; }

    /**
     * Next pseudo-random word of `slot`'s stream. Thread-safe; the
     * value depends only on (seed, slot, this slot's draw index).
     */
    std::uint64_t draw(unsigned slot);

    /** draw() reduced to [0, bound); bound must be positive. */
    std::uint64_t pick(unsigned slot, std::uint64_t bound);

    /** draw() reduced to a coin flip. */
    bool decide(unsigned slot) { return (draw(slot) & 1) != 0; }

    /**
     * Every draw made so far, formatted one line per draw in slot
     * order ("slot 0 draw 0 = 0x..."). Two runs of the same seed that
     * make the same decisions produce byte-identical traces — the
     * replay proof the stress tests pin.
     */
    std::vector<std::string> trace() const;

    /**
     * Timing-perturbation hook behind SPARCH_SCHEDULE_POINT: seeded
     * choice between passing through, yielding, and a short spin.
     * Deliberately not part of the trace — arrival order of points is
     * OS-scheduling dependent; points shake interleavings, decisions
     * drive them.
     */
    void onPoint(const char *name) noexcept;

    /** Schedule points hit while this schedule was active. */
    std::uint64_t pointsHit() const
    {
        return points_hit_.load(std::memory_order_relaxed);
    }

  private:
    struct Slot
    {
        std::uint64_t draws = 0;
        std::vector<std::uint64_t> values;
    };

    const std::uint64_t seed_;
    mutable std::mutex mutex_;
    std::array<Slot, kMaxSlots> slots_;
    std::atomic<std::uint64_t> points_hit_{0};
    std::atomic<std::uint64_t> point_state_;
};

namespace detail
{
/** The active schedule, or nullptr. Set only via ScheduleGuard. */
extern std::atomic<Schedule *> g_active_schedule;
} // namespace detail

/** The schedule installed by the innermost ScheduleGuard, if any. */
inline Schedule *
activeSchedule() noexcept
{
    return detail::g_active_schedule.load(std::memory_order_acquire);
}

/**
 * RAII activation: schedule points fire into `schedule` for the
 * guard's lifetime. Guards must not nest (one stress run at a time).
 */
class ScheduleGuard
{
  public:
    explicit ScheduleGuard(Schedule &schedule);
    ~ScheduleGuard();

    ScheduleGuard(const ScheduleGuard &) = delete;
    ScheduleGuard &operator=(const ScheduleGuard &) = delete;
};

namespace detail
{
void onPointSlow(const char *name) noexcept;
} // namespace detail

/** Hook body: one relaxed load when no schedule is active. */
inline void
schedulePoint(const char *name) noexcept
{
    if (activeSchedule() != nullptr)
        detail::onPointSlow(name);
}

} // namespace check
} // namespace sparch

/**
 * Mark a concurrency decision point (queue handoff, steal, requeue,
 * flush). One relaxed atomic load when no Schedule is active.
 */
#define SPARCH_SCHEDULE_POINT(name) ::sparch::check::schedulePoint(name)

#endif // SPARCH_CHECK_SCHEDULE_HH
