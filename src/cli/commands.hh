/**
 * @file
 * The sparch CLI: one front door over the batch-simulation driver.
 *
 * Commands:
 *   run        simulate ad-hoc workload specs at one configuration
 *              (a one-config sweep)
 *   sweep      run a grid-spec file (configs x workloads x shards)
 *   workloads  list the built-in suite and the spec grammar
 *   cache      inspect or clear a persistent result cache
 *
 * The entry point takes argv-style strings plus explicit output
 * streams and returns a process exit code, so tests drive the whole
 * CLI in-process and assert on its bytes; src/cli/main.cc is a thin
 * argv adapter around it. `run` and `sweep` only turn flags into a
 * GridSpec and print; both run it through one grid pipeline: stats,
 * surrogate scoring and the Pareto filter (under `sweep --surrogate`
 * only), then execute through BatchRunner, calibrate and emit. The
 * CLI owns no simulation loop of its own, and both commands accept
 * `--cache PATH` so repeated sweeps only simulate grid points the
 * cache has never seen.
 */

#ifndef SPARCH_CLI_COMMANDS_HH
#define SPARCH_CLI_COMMANDS_HH

#include <iosfwd>
#include <string>
#include <vector>

namespace sparch
{
namespace cli
{

/**
 * Dispatch one CLI invocation. `args` is argv without the program
 * name. User errors (FatalError) print to `err` and return 1; success
 * returns 0.
 */
int run(const std::vector<std::string> &args, std::ostream &out,
        std::ostream &err);

} // namespace cli
} // namespace sparch

#endif // SPARCH_CLI_COMMANDS_HH
