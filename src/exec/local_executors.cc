#include "exec/local_executors.hh"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <utility>

#include "check/schedule.hh"
#include "driver/thread_pool.hh"

namespace sparch
{
namespace exec
{

std::vector<driver::BatchRecord>
InlineExecutor::run(const std::vector<const driver::BatchTask *> &tasks,
                    const TaskFn &run_task, const RecordFn &on_record,
                    std::vector<TaskFailure> &failures)
{
    std::vector<driver::BatchRecord> records;
    records.reserve(tasks.size());
    for (const driver::BatchTask *task : tasks) {
        try {
            driver::BatchRecord record = run_task(*task);
            if (on_record)
                on_record(record);
            records.push_back(std::move(record));
        } catch (const std::exception &e) {
            failures.push_back({task->id, e.what()});
        } catch (...) {
            // Same failure contract as the other backends: no
            // exception kind may abort the sweep.
            failures.push_back({task->id, "unknown error"});
        }
    }
    sortById(records, failures);
    return records;
}

ThreadPoolExecutor::ThreadPoolExecutor(unsigned threads)
    : threads_(threads == 0 ? driver::ThreadPool::hardwareThreads()
                            : threads)
{}

std::vector<driver::BatchRecord>
ThreadPoolExecutor::run(
    const std::vector<const driver::BatchTask *> &tasks,
    const TaskFn &run_task, const RecordFn &on_record,
    std::vector<TaskFailure> &failures)
{
    // A pool is pointless overhead for one task (or one thread); the
    // inline path is bit-identical anyway. A lone sharded task still
    // uses the spare workers: BatchRunner hands it the thread budget
    // for its row blocks.
    if (threads_ <= 1 || tasks.size() <= 1) {
        InlineExecutor serial;
        return serial.run(tasks, run_task, on_record, failures);
    }

    // Workers park finished tasks on a queue the calling thread
    // drains, so on_record sees records in *completion* order (the
    // contract BatchRunner's incremental cache flush leans on: a
    // sweep killed mid-run must have every finished point on disk,
    // not just the prefix up to the slowest early task). A plain
    // future-per-task loop would deliver in submit order instead.
    struct Completion
    {
        std::size_t id = 0;
        driver::BatchRecord record;
        std::string error;
        bool failed = false;
    };
    std::mutex mutex;
    std::condition_variable ready;
    std::deque<Completion> completed;

    driver::ThreadPool pool(threads_);
    for (const driver::BatchTask *task : tasks) {
        pool.submit([&run_task, task, &mutex, &ready, &completed] {
            Completion done;
            done.id = task->id;
            try {
                done.record = run_task(*task);
            } catch (const std::exception &e) {
                done.error = e.what();
                done.failed = true;
            } catch (...) {
                // A completion must reach the queue no matter what,
                // or the drain loop below waits forever.
                done.error = "unknown error";
                done.failed = true;
            }
            SPARCH_SCHEDULE_POINT("thread_executor.complete");
            {
                std::lock_guard<std::mutex> lock(mutex);
                completed.push_back(std::move(done));
            }
            ready.notify_one();
        });
    }

    std::vector<driver::BatchRecord> records;
    records.reserve(tasks.size());
    for (std::size_t n = 0; n < tasks.size(); ++n) {
        Completion done;
        SPARCH_SCHEDULE_POINT("thread_executor.drain");
        {
            std::unique_lock<std::mutex> lock(mutex);
            ready.wait(lock, [&completed] {
                return !completed.empty();
            });
            done = std::move(completed.front());
            completed.pop_front();
        }
        if (done.failed) {
            failures.push_back({done.id, std::move(done.error)});
        } else {
            if (on_record)
                on_record(done.record);
            records.push_back(std::move(done.record));
        }
    }
    sortById(records, failures);
    return records;
}

} // namespace exec
} // namespace sparch
