/**
 * @file
 * Two-phase clocked-module base class and simulation kernel.
 *
 * Section III-A of the paper describes the authors' simulator: "Each
 * module is abstracted as a class with a clock update method updating
 * the internal state of this module in each cycle, and a clock apply
 * method, which simulates the flip-flops in the circuit to make sure
 * signals are updated correctly." This header reproduces exactly that
 * structure: the kernel calls clockUpdate() on every module (combinational
 * evaluation against the current registered state), then clockApply()
 * (commit of next state), then advances the cycle counter.
 *
 * The Fig. 10 pipeline is a fixed set of modules, so the kernel holds
 * the concrete module types in a tuple and unrolls both clock phases
 * into direct calls at compile time; nothing dispatches through the
 * Clocked base. Absolute cycle counts are pinned by the golden tests
 * SpArchSimulator.GoldenCyclesAndTraffic*.
 */

#ifndef SPARCH_HW_CLOCKED_HH
#define SPARCH_HW_CLOCKED_HH

#include <string>
#include <tuple>

#include "common/annotations.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace sparch
{
namespace hw
{

/**
 * Base class for every clocked hardware module. It only carries the
 * instance name; each module provides clockUpdate() (combinational
 * phase), clockApply() (the flip-flop edge) and recordStats(StatSet &),
 * which SimKernel calls on the concrete type.
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
 * order for clockApply, then the cycle advances.
 */
template <typename... Modules>
class SimKernel
{
  public:
    /** The kernel does not take ownership of the modules. */
    explicit SimKernel(Modules &...modules) : modules_(&modules...) {}

    SimKernel(const SimKernel &) = delete;
    SimKernel &operator=(const SimKernel &) = delete;

    /** Advance one clock cycle. */
    SPARCH_HOT void
    tick()
    {
        std::apply([](auto *...m) { (m->clockUpdate(), ...); }, modules_);
        std::apply([](auto *...m) { (m->clockApply(), ...); }, modules_);
        ++now_;
    }

    /** Advance until the predicate is true or max_cycles elapse. */
    template <typename DonePredicate>
    SPARCH_HOT bool
    run(DonePredicate &&done, Cycle max_cycles)
    {
        while (!done()) {
            if (now_ >= max_cycles)
                return false;
            tick();
        }
        return true;
    }

    /** Current simulation time in cycles. */
    Cycle now() const { return now_; }

    /** Collect statistics from all modules. */
    void
    recordStats(StatSet &stats) const
    {
        std::apply([&](auto *...m) { (m->recordStats(stats), ...); },
                   modules_);
    }

  private:
    std::tuple<Modules *...> modules_;
    Cycle now_ = 0;
};

} // namespace hw
} // namespace sparch

#endif // SPARCH_HW_CLOCKED_HH
