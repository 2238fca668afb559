#include "exec/executor.hh"

#include "exec/local_executors.hh"
#include "exec/process_pool_executor.hh"

namespace sparch
{
namespace exec
{

std::unique_ptr<Executor>
makeExecutor(const std::string &kind, unsigned threads,
             const ProcessPoolOptions &procs)
{
    if (kind == "inline")
        return std::make_unique<InlineExecutor>();
    if (kind == "threads")
        return std::make_unique<ThreadPoolExecutor>(threads);
    if (kind == "procs")
        return std::make_unique<ProcessPoolExecutor>(procs);
    return nullptr;
}

} // namespace exec
} // namespace sparch
