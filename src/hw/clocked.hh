/**
 * @file
 * The simulation kernel: the one clock of the Fig. 10 pipeline.
 *
 * Section III-A of the paper describes the authors' simulator: "Each
 * module is abstracted as a class with a clock update method updating
 * the internal state of this module in each cycle, and a clock apply
 * method, which simulates the flip-flops in the circuit to make sure
 * signals are updated correctly." This simulator keeps the update
 * phase and has no apply phase, because no module holds next-state
 * registers. Each clockUpdate(now) reads and writes the FIFOs and
 * bitmasks it shares with its neighbours directly, in the fixed order
 * the modules are passed to the kernel: what a module writes is seen
 * by the modules updated after it in the same cycle and by the ones
 * before it in the next. Inside the merge tree the levels are served
 * root-side first, so an element climbs at most one level per cycle.
 * The golden cycle counts pin this order. The only state left for a
 * clock edge to move is the cycle, and the kernel holds it: it passes
 * `now` to every module's clockUpdate() and nextEventCycle() and to
 * the round's done predicate, and the modules pass it on to the calls
 * that issue or test memory timing.
 *
 * The kernel does not tick every cycle. Each clockUpdate() reports
 * whether its module made progress, i.e. changed any state besides its
 * per-cycle counters and its round-robin pointer. After a tick in
 * which no module made progress the pipeline sits in a fixed point:
 * the next tick would find the same state and do the same nothing,
 * until a cycle some module already knows (nextEventCycle(): a MatA
 * read landing, a parked port's row landing, a partial-matrix burst
 * landing, the last write completing). The kernel therefore jumps to
 * the earliest such cycle, capped at the round's cycle limit, and
 * calls skip(k) on every module that keeps per-cycle state
 * (QuietCounting), which adds k quiet cycles' increments to its
 * per-cycle counters and advances its round-robin pointer by k. A
 * round with no event left (a deadlock) jumps straight to the limit.
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
 * direct calls at compile time; no module has a base class. Absolute
 * cycle counts are pinned by the golden tests
 * SpArchSimulator.GoldenCyclesAndTraffic*.
 */

#ifndef SPARCH_HW_CLOCKED_HH
#define SPARCH_HW_CLOCKED_HH

#include <algorithm>
#include <tuple>
#include <type_traits>

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
 * A module with per-cycle state besides the cycle: per-cycle counters
 * or a round-robin pointer that a quiet span must advance. skipped(k)
 * returns that state as it would be after k more cycles without
 * progress, and skip(k) sets it.
 */
template <typename Module>
concept QuietCounting = requires(Module &m, const Module &c, Cycle k) {
    c.skipped(k);
    m.skip(k);
};

/**
 * Cycle-driven simulation kernel over a fixed module set and the only
 * holder of simulated time. Each module provides, for the kernel to
 * call on the concrete type:
 *  - bool clockUpdate(Cycle now): one cycle; true when the module made
 *    progress (see @file);
 *  - Cycle nextEventCycle(Cycle now) const: the earliest cycle at
 *    which the module can make progress without input from another
 *    module, or kNoEvent;
 *  - skipped(k) and skip(k) when it is QuietCounting;
 *  - recordStats(StatSet &).
 * Modules are updated in constructor-argument order (producers before
 * consumers), then the cycle advances. Spans without progress are
 * skipped (see @file).
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
        std::apply(
            [&](auto *...m) { ((moved |= m->clockUpdate(cycle_)), ...); },
            modules_);
        ++cycle_;
        return moved;
    }

    /**
     * Advance until done(now) is true or max_cycles elapse; false on
     * reaching max_cycles.
     */
    template <typename DonePredicate>
    SPARCH_HOT bool
    run(DonePredicate &&done, Cycle max_cycles)
    {
        while (!done(cycle_)) {
            if (cycle_ >= max_cycles)
                return false;
            if (!tick())
                skipQuietSpan(done, max_cycles);
        }
        return true;
    }

    /** Current simulation time in cycles. */
    Cycle now() const { return cycle_; }

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
                ((next = std::min(next, m->nextEventCycle(cycle_))), ...);
            },
            modules_);
        if (next <= cycle_)
            return;
        const Cycle k = next - cycle_;
        ++skip_spans_;
        skipped_cycles_ += k;
        if constexpr (SPARCH_DCHECK_IS_ON) {
            const auto predicted = skippedState(k);
            while (cycle_ < next) {
                if (done(cycle_) || tick()) {
                    panic("SimKernel: progress at cycle ", cycle_,
                          " inside a quiet span predicted to end at ",
                          next);
                }
            }
            if (skippedState(0) != predicted) {
                panic("SimKernel: per-cycle state after a quiet span of ",
                      k, " cycles differs from skip(", k, ")");
            }
        } else {
            std::apply([k](auto *...m) { (skipModule(*m, k), ...); },
                       modules_);
            cycle_ = next;
        }
    }

    /** m.skip(k) when the module keeps per-cycle state. */
    template <typename Module>
    static void
    skipModule(Module &m, Cycle k)
    {
        if constexpr (QuietCounting<Module>)
            m.skip(k);
    }

    /** Each QuietCounting module's skipped(k). */
    auto
    skippedState(Cycle k) const
    {
        const auto of = [k](const auto *m) {
            if constexpr (QuietCounting<
                              std::remove_cvref_t<decltype(*m)>>)
                return std::make_tuple(m->skipped(k));
            else
                return std::tuple<>{};
        };
        return std::apply(
            [&](auto *...m) { return std::tuple_cat(of(m)...); },
            modules_);
    }

    std::tuple<Modules *...> modules_;
    Cycle cycle_ = 0;

    /** Cycles jumped over (DCHECK builds: ticked through and checked)
     *  and the number of jumps. */
    std::uint64_t skipped_cycles_ = 0;
    std::uint64_t skip_spans_ = 0;
};

} // namespace hw
} // namespace sparch

#endif // SPARCH_HW_CLOCKED_HH
