#include "cli/flags.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/logging.hh"

namespace sparch
{
namespace cli
{

namespace
{

bool
contains(const std::vector<std::string> &names, const std::string &name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

FlagSet::FlagSet(const std::vector<std::string> &args,
                 const std::vector<std::string> &valued,
                 const std::vector<std::string> &boolean)
{
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        if (arg.rfind("--", 0) != 0 || arg == "--") {
            positional_.push_back(arg);
            continue;
        }
        std::string name = arg.substr(2);
        std::string value;
        bool has_value = false;
        const std::size_t eq = name.find('=');
        if (eq != std::string::npos) {
            value = name.substr(eq + 1);
            name = name.substr(0, eq);
            has_value = true;
        }
        if (contains(boolean, name)) {
            if (has_value)
                fatal("flag --", name, " takes no value");
            // insert_or_assign sidesteps a GCC 12 -Wrestrict false
            // positive on operator[] + literal assignment.
            values_.insert_or_assign(name, std::string("1"));
        } else if (contains(valued, name)) {
            if (!has_value) {
                if (i + 1 >= args.size())
                    fatal("flag --", name, " needs a value");
                value = args[++i];
            }
            values_.insert_or_assign(name, value);
        } else {
            fatal("unknown flag --", name);
        }
    }
}

bool
FlagSet::has(const std::string &name) const
{
    return values_.contains(name);
}

std::string
FlagSet::get(const std::string &name, const std::string &fallback) const
{
    const auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

std::uint64_t
FlagSet::getU64(const std::string &name, std::uint64_t fallback) const
{
    const auto it = values_.find(name);
    if (it == values_.end())
        return fallback;
    return parseU64(it->second, "--" + name);
}

unsigned
FlagSet::getUnsigned(const std::string &name, unsigned fallback) const
{
    return static_cast<unsigned>(getU64(name, fallback));
}

std::uint64_t
parseU64(const std::string &text, const std::string &what)
{
    // strtoull would silently wrap "-5" modulo 2^64; demand a digit
    // up front so negatives are rejected, not misread as huge counts.
    if (text.empty() ||
        !std::isdigit(static_cast<unsigned char>(text[0]))) {
        fatal(what, ": '", text, "' is not a non-negative number");
    }
    char *end = nullptr;
    const int base =
        text.rfind("0x", 0) == 0 || text.rfind("0X", 0) == 0 ? 16 : 10;
    const std::uint64_t v = std::strtoull(text.c_str(), &end, base);
    if (end != text.c_str() + text.size())
        fatal(what, ": '", text, "' is not a number");
    return v;
}

double
parseDouble(const std::string &text, const std::string &what)
{
    if (text.empty())
        fatal(what, ": empty number");
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size())
        fatal(what, ": '", text, "' is not a number");
    return v;
}

bool
parseBool(const std::string &text, const std::string &what)
{
    if (text == "1" || text == "on" || text == "true" || text == "yes")
        return true;
    if (text == "0" || text == "off" || text == "false" ||
        text == "no") {
        return false;
    }
    fatal(what, ": '", text, "' is not a boolean (use on/off)");
}

} // namespace cli
} // namespace sparch
