/**
 * @file
 * The batch-execution strategy interface.
 *
 * BatchRunner owns *what* a sweep simulates (task enumeration, seeds,
 * the result cache); an exec::Executor owns *how* the resulting task
 * set is executed: serially on the calling thread (InlineExecutor),
 * across the in-process work-stealing pool (ThreadPoolExecutor), or
 * fanned out over `sparch worker` subprocesses that survive individual
 * crashes (ProcessPoolExecutor).
 *
 * ## The determinism contract
 *
 * Every backend must satisfy the same contract, conformance-tested in
 * tests/test_exec.cc, so that `sparch sweep --exec=inline|threads|
 * procs` emit byte-identical CSVs for the same grid:
 *
 *  1. **Stable ids.** Tasks are identified by BatchTask::id, assigned
 *     at grid-build time. Executors never renumber, reorder-visibly,
 *     or drop ids silently: every task ends up either as a record or
 *     as a TaskFailure.
 *  2. **Per-task seeds.** BatchTask::seed (SplitMix64 of base ^ id)
 *     is part of the task, not of the execution: a backend must run
 *     the simulation with exactly that seed, so scheduling can never
 *     change a workload.
 *  3. **Id-sorted results.** run() returns records sorted ascending
 *     by task id, one per successful task. Execution order and
 *     completion order are backend-private.
 *
 * Under that contract the backend only changes wall-clock time and
 * fault tolerance, never measurements.
 *
 * Failure semantics: a task whose simulation throws (or whose worker
 * process dies permanently) is reported through the failures list
 * instead of aborting the whole sweep; BatchRunner surfaces the count
 * as RunStats::failed.
 */

#ifndef SPARCH_EXEC_EXECUTOR_HH
#define SPARCH_EXEC_EXECUTOR_HH

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "driver/batch_runner.hh"

namespace sparch
{
namespace exec
{

/** One task that could not be completed by any means. */
struct TaskFailure
{
    std::size_t id = 0;
    std::string error;
};

/** Strategy for executing a set of batch tasks. */
class Executor
{
  public:
    /** Runs one task; throws to signal a failed point. */
    using TaskFn =
        std::function<driver::BatchRecord(const driver::BatchTask &)>;

    /**
     * Called once per completed record, on the thread run() was
     * called from, in completion order. BatchRunner uses it to stream
     * finished points into the result cache so a killed sweep resumes
     * from what it already measured.
     */
    using RecordFn = std::function<void(const driver::BatchRecord &)>;

    virtual ~Executor() = default;

    /** Backend name as spelled by `--exec=` ("inline", "threads", "procs"). */
    virtual const char *name() const = 0;

    /**
     * True when tasks run in this process via run_task. Out-of-process
     * backends stream records back in the CSV schema, which carries
     * the measurement scalars but neither product matrices nor module
     * stats (exactly like result-cache hits) — so keepProducts runs
     * need an in-process backend.
     */
    virtual bool inProcess() const { return true; }

    /**
     * Execute every task, honouring the determinism contract above.
     *
     * @param tasks     Tasks to run, in ascending id order.
     * @param run_task  In-process simulation callback (ignored by
     *                  out-of-process backends, which rebuild tasks
     *                  from their serialized specs instead).
     * @param on_record Optional per-record completion hook.
     * @param failures  Permanently failed tasks, appended in id order.
     * @return Records of the successful tasks, sorted by id.
     */
    virtual std::vector<driver::BatchRecord>
    run(const std::vector<const driver::BatchTask *> &tasks,
        const TaskFn &run_task, const RecordFn &on_record,
        std::vector<TaskFailure> &failures) = 0;
};

/**
 * Establish contract rule 3 — ascending task-id order — for a run's
 * outputs. Every backend funnels through this one implementation so
 * their orderings cannot diverge.
 */
inline void
sortById(std::vector<driver::BatchRecord> &records,
         std::vector<TaskFailure> &failures)
{
    std::sort(records.begin(), records.end(),
              [](const driver::BatchRecord &a,
                 const driver::BatchRecord &b) { return a.id < b.id; });
    std::sort(failures.begin(), failures.end(),
              [](const TaskFailure &a, const TaskFailure &b) {
                  return a.id < b.id;
              });
}

struct ProcessPoolOptions;

/**
 * Build the backend `kind` names: "inline", "threads" (a pool of
 * `threads` workers) or "procs" (configured by `procs`). Returns
 * nullptr for any other name, so each caller reports the bad value
 * in terms of its own flag or environment variable.
 */
std::unique_ptr<Executor> makeExecutor(const std::string &kind,
                                       unsigned threads,
                                       const ProcessPoolOptions &procs);

} // namespace exec
} // namespace sparch

#endif // SPARCH_EXEC_EXECUTOR_HH
