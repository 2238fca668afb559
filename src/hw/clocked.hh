/**
 * @file
 * Two-phase clocked-module base class and simulation kernel.
 *
 * Section III-A of the paper describes the authors' simulator: "Each
 * module is abstracted as a class with a clock update method updating
 * the internal state of this module in each cycle, and a clock apply
 * method, which simulates the flip-flops in the circuit to make sure
 * signals are updated correctly." This header reproduces that
 * structure: a tick calls clockUpdate() on every module (combinational
 * evaluation against the current registered state), then clockApply()
 * (commit of next state), then advances the cycle counter.
 *
 * The kernel does not tick every cycle. Each clockUpdate() reports
 * whether its module made progress, i.e. changed any state besides its
 * per-cycle counters, its clock and its round-robin pointer. After a
 * tick in which no module made progress the pipeline sits in a fixed
 * point: the next tick would find the same state and do the same
 * nothing, until a cycle some module already knows (nextEventCycle():
 * a MatA read landing, a parked port's row landing, a partial-matrix
 * burst landing, the last write completing). The kernel therefore
 * jumps to the earliest such cycle, capped at the round's cycle limit,
 * and calls skip(k) on every module, which adds k quiet cycles'
 * increments to its per-cycle counters and advances its clock and
 * round-robin pointer by k. A round with no event left (a deadlock)
 * jumps straight to the limit.
 *
 * The jump is exact because memory is not a clocked module:
 * MemoryModel::read/write fix a request's completion cycle when it is
 * issued, so a skipped span issues nothing and every later request is
 * issued at the cycle it would have been. Cycle counts, every counter
 * and every CSV byte are those of a cycle-by-cycle loop. SPARCH_DCHECK
 * builds do not skip: they tick through each span they would have
 * skipped and panic if the round finishes or a module makes progress
 * before the predicted cycle, or if the per-cycle state at its end
 * differs from what skip(k) would have produced (skipped(k)).
 *
 * The Fig. 10 pipeline is a fixed set of modules, so the kernel holds
 * the concrete module types in a tuple and unrolls every phase into
 * direct calls at compile time; nothing dispatches through the Clocked
 * base. Absolute cycle counts are pinned by the golden tests
 * SpArchSimulator.GoldenCyclesAndTraffic*.
 */

#ifndef SPARCH_HW_CLOCKED_HH
#define SPARCH_HW_CLOCKED_HH

#include <algorithm>
#include <string>
#include <tuple>

#include "common/annotations.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sparch
{
namespace hw
{

/** nextEventCycle() of a module that waits on no known cycle. */
inline constexpr Cycle kNoEvent = ~Cycle{0};

/**
 * Base class for every clocked hardware module. It only carries the
 * instance name; each module provides, for SimKernel to call on the
 * concrete type:
 *  - bool clockUpdate(): the combinational phase; true when the
 *    module made progress (see @file);
 *  - clockApply(): the flip-flop edge;
 *  - Cycle nextEventCycle() const: the earliest cycle at which the
 *    module can make progress without input from another module, or
 *    kNoEvent;
 *  - skipped(Cycle k) const: a tuple of the module's per-cycle state
 *    (clock, round-robin pointer, per-cycle counters) as it would be
 *    after k more cycles without progress, and skip(k), which sets it;
 *  - recordStats(StatSet &).
 */
class Clocked
{
  public:
    explicit Clocked(std::string name) : name_(std::move(name)) {}

    Clocked(const Clocked &) = delete;
    Clocked &operator=(const Clocked &) = delete;

    /** Module instance name, used as a stats prefix. */
    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

/**
 * Cycle-driven simulation kernel over a fixed module set. Modules are
 * ticked in constructor-argument order for clockUpdate (producers come
 * before consumers so data flows one stage per cycle), then in the same
 * order for clockApply, then the cycle advances. Spans without progress
 * are skipped (see @file).
 */
template <typename... Modules>
class SimKernel
{
  public:
    /** The kernel does not take ownership of the modules. */
    explicit SimKernel(Modules &...modules) : modules_(&modules...) {}

    SimKernel(const SimKernel &) = delete;
    SimKernel &operator=(const SimKernel &) = delete;

    /** Advance one clock cycle; true when some module made progress. */
    SPARCH_HOT bool
    tick()
    {
        bool moved = false;
        std::apply([&](auto *...m) { ((moved |= m->clockUpdate()), ...); },
                   modules_);
        std::apply([](auto *...m) { (m->clockApply(), ...); }, modules_);
        ++now_;
        return moved;
    }

    /** Advance until the predicate is true or max_cycles elapse. */
    template <typename DonePredicate>
    SPARCH_HOT bool
    run(DonePredicate &&done, Cycle max_cycles)
    {
        while (!done()) {
            if (now_ >= max_cycles)
                return false;
            if (!tick())
                skipQuietSpan(done, max_cycles);
        }
        return true;
    }

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    /** Collect statistics from all modules and the kernel's skips. */
    void
    recordStats(StatSet &stats) const
    {
        std::apply([&](auto *...m) { (m->recordStats(stats), ...); },
                   modules_);
        stats.set("kernel.skipped_cycles",
                  static_cast<double>(skipped_cycles_));
        stats.set("kernel.skip_spans", static_cast<double>(skip_spans_));
    }

  private:
    /**
     * Called after a tick without progress: advance to the earliest
     * module event, capped at max_cycles. The round's done() can only
     * flip on the writer's last-write cycle, which is an event.
     */
    template <typename DonePredicate>
    void
    skipQuietSpan(DonePredicate &done, Cycle max_cycles)
    {
        Cycle next = max_cycles;
        std::apply(
            [&](auto *...m) {
                ((next = std::min(next, m->nextEventCycle())), ...);
            },
            modules_);
        if (next <= now_)
            return;
        const Cycle k = next - now_;
        ++skip_spans_;
        skipped_cycles_ += k;
        if constexpr (SPARCH_DCHECK_IS_ON) {
            const auto predicted = skippedState(k);
            while (now_ < next) {
                if (done() || tick()) {
                    panic("SimKernel: progress at cycle ", now_,
                          " inside a quiet span predicted to end at ",
                          next);
                }
            }
            if (skippedState(0) != predicted) {
                panic("SimKernel: per-cycle state after a quiet span of ",
                      k, " cycles differs from skip(", k, ")");
            }
        } else {
            std::apply([k](auto *...m) { (m->skip(k), ...); }, modules_);
            now_ = next;
        }
    }

    /** Every module's skipped(k). */
    auto
    skippedState(Cycle k) const
    {
        return std::apply(
            [k](auto *...m) { return std::make_tuple(m->skipped(k)...); },
            modules_);
    }

    std::tuple<Modules *...> modules_;
    Cycle now_ = 0;

    /** Cycles jumped over (DCHECK builds: ticked through and checked)
     *  and the number of jumps. */
    std::uint64_t skipped_cycles_ = 0;
    std::uint64_t skip_spans_ = 0;
};

} // namespace hw
} // namespace sparch

#endif // SPARCH_HW_CLOCKED_HH
