/**
 * @file
 * Minimal declarative flag parser for the sparch CLI.
 *
 * Each command declares its valued and boolean flags up front; parsing
 * then accepts `--name value`, `--name=value` and bare boolean
 * `--name`, collects everything else as positionals, and rejects
 * unknown flags with a FatalError naming the offender. No dependency
 * beyond the standard library — the container images this runs in
 * carry nothing else.
 */

#ifndef SPARCH_CLI_FLAGS_HH
#define SPARCH_CLI_FLAGS_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace sparch
{
namespace cli
{

/** Parsed command-line flags plus positional arguments. */
class FlagSet
{
  public:
    /**
     * @param args    Arguments after the command name.
     * @param valued  Flag names (without `--`) that take a value.
     * @param boolean Flag names that are presence-only switches.
     * Throws FatalError on an unknown flag, a missing value, or a
     * value handed to a boolean flag.
     */
    FlagSet(const std::vector<std::string> &args,
            const std::vector<std::string> &valued,
            const std::vector<std::string> &boolean);

    /** True if the flag appeared (valued or boolean). */
    bool has(const std::string &name) const;

    /** Value of a valued flag, or `fallback` if absent. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Unsigned integer flag (decimal or 0x hex); throws on garbage. */
    std::uint64_t getU64(const std::string &name,
                         std::uint64_t fallback) const;

    unsigned getUnsigned(const std::string &name,
                         unsigned fallback) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

/** Parse "123" or "0x7b" into a uint64; throws FatalError on garbage. */
std::uint64_t parseU64(const std::string &text, const std::string &what);

/** Parse a floating-point value; throws FatalError on garbage. */
double parseDouble(const std::string &text, const std::string &what);

/** Parse on/off/true/false/1/0/yes/no; throws FatalError otherwise. */
bool parseBool(const std::string &text, const std::string &what);

} // namespace cli
} // namespace sparch

#endif // SPARCH_CLI_FLAGS_HH
