#include "cli/spec.hh"

#include <cctype>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "baselines/benchmarks.hh"
#include "cli/flags.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "core/config_registry.hh"

namespace sparch
{
namespace cli
{

namespace
{

std::string
trimmed(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Split on a delimiter, trimming each piece. */
std::vector<std::string>
splitTrimmed(const std::string &text, char delim)
{
    std::vector<std::string> out;
    std::string piece;
    std::istringstream in(text);
    while (std::getline(in, piece, delim))
        out.push_back(trimmed(piece));
    return out;
}

/** Parse "AxB" (e.g. "4096x16") into two integers. */
std::pair<std::uint64_t, std::uint64_t>
parsePair(const std::string &text, const std::string &what)
{
    const std::size_t x = text.find('x');
    if (x == std::string::npos || x == 0 || x + 1 == text.size())
        fatal(what, ": expected <a>x<b>, got '", text, "'");
    return {parseU64(text.substr(0, x), what),
            parseU64(text.substr(x + 1), what)};
}

std::string
fmtBool(bool v)
{
    return v ? "true" : "false";
}

// ---- registry-generated enum spelling tables ---------------------
//
// The CLI spelling of every config enum value lives in
// core/config_fields.def (SPARCH_CONFIG_ENUM_VALUE entries) and
// mem/memory_fields.def (SPARCH_MEM_KIND entries); the parse and
// render tables below are generated from those lists, so adding an
// enumerator without registering a spelling leaves it unreachable
// from the CLI — which the registry's enum-coverage audit rule flags.

/** One CLI spelling of an enum value. */
template <class E>
struct EnumText
{
    E value;
    const char *text;
};

constexpr EnumText<ReplacementPolicy> kReplacementTexts[] = {
#define SPARCH_ENUM_TEXT_ReplacementPolicy(enumerator, text)          \
    {ReplacementPolicy::enumerator, #text},
#define SPARCH_ENUM_TEXT_SchedulerKind(enumerator, text)
#define SPARCH_CONFIG_ENUM_VALUE(Enum, enumerator, text)              \
    SPARCH_ENUM_TEXT_##Enum(enumerator, text)
#include "core/config_fields.def"
#undef SPARCH_ENUM_TEXT_ReplacementPolicy
#undef SPARCH_ENUM_TEXT_SchedulerKind
};

constexpr EnumText<SchedulerKind> kSchedulerTexts[] = {
#define SPARCH_ENUM_TEXT_ReplacementPolicy(enumerator, text)
#define SPARCH_ENUM_TEXT_SchedulerKind(enumerator, text)              \
    {SchedulerKind::enumerator, #text},
#define SPARCH_CONFIG_ENUM_VALUE(Enum, enumerator, text)              \
    SPARCH_ENUM_TEXT_##Enum(enumerator, text)
#include "core/config_fields.def"
#undef SPARCH_ENUM_TEXT_ReplacementPolicy
#undef SPARCH_ENUM_TEXT_SchedulerKind
};

constexpr EnumText<mem::MemoryKind> kMemoryKindTexts[] = {
#define SPARCH_MEM_KIND(enumerator, text)                             \
    {mem::MemoryKind::enumerator, #text},
#include "mem/memory_fields.def"
};

/**
 * Parse CLI text into an enum value, with the classic
 * "<key>: '<v>' is not a, b or c" error on a miss.
 */
template <class E, std::size_t N>
E
parseEnumText(const char *key, const EnumText<E> (&table)[N],
              const std::string &v)
{
    for (const EnumText<E> &entry : table)
        if (v == entry.text)
            return entry.value;
    std::string valid;
    for (std::size_t i = 0; i < N; ++i) {
        if (i > 0)
            valid += i + 1 == N ? " or " : ", ";
        valid += table[i].text;
    }
    fatal(key, ": '", v, "' is not ", valid);
}

template <class E, std::size_t N>
const char *
renderEnumText(const EnumText<E> (&table)[N], E value)
{
    for (const EnumText<E> &entry : table)
        if (entry.value == value)
            return entry.text;
    return table[0].text; // out-of-range enum: default spelling
}

/**
 * One config key: its name, how to apply a value, and how to render
 * the current value back as parser-accepted text. The parser
 * dispatch, the unknown-key error listing AND the serializer
 * (writeConfigOverrides, which the multi-process executor ships to
 * workers) are all generated from the one table below, so they cannot
 * drift apart (the hand-maintained error string used to).
 */
struct ConfigKey
{
    std::string name;
    std::function<void(SpArchConfig &, const std::string &)> apply;
    std::function<std::string(const SpArchConfig &)> render;
};

/**
 * Memory keys — the backend selector plus every backend's parameter
 * block — generated from src/mem/memory_fields.def into the slot the
 * SPARCH_CONFIG_MEMORY() entry occupies in the main registry. The
 * blocks are emitted in the legacy key order (memory, hbm_*, ddr4_*,
 * lpddr4_*, ideal_latency), which test_cli pins via configKeyList.
 */
template <class AddFn>
void
addMemoryKeys(std::vector<ConfigKey> &k, const AddFn &add)
{
    add("memory",
        [](SpArchConfig &c, const char *n, const std::string &v) {
            c.memory.kind = parseEnumText(n, kMemoryKindTexts, v);
        },
        [](const SpArchConfig &c) -> std::string {
            return renderEnumText(kMemoryKindTexts, c.memory.kind);
        });

// How each memory-registry TYPE assigns a parsed CLI value.
#define SPARCH_MEM_APPLY_U64(lvalue) lvalue = parseU64(v, n);
#define SPARCH_MEM_APPLY_UNSIGNED(lvalue)                             \
    lvalue = static_cast<unsigned>(parseU64(v, n));

#define SPARCH_MEM_FIELD_HBM(cli_name, type, member, key)             \
    add(#cli_name,                                                    \
        [](SpArchConfig &c, const char *n, const std::string &v) {    \
            SPARCH_MEM_APPLY_##type(c.memory.hbm.member)              \
        },                                                            \
        [](const SpArchConfig &c) {                                   \
            return std::to_string(c.memory.hbm.member);               \
        });
#include "mem/memory_fields.def"

    // DDR4 and LPDDR4 share one parameter block; both key families
    // (ddr4_<suffix>, lpddr4_<suffix>) come from the BANKED entries.
    struct BankedField
    {
        const char *suffix;
        void (*set)(mem::BankedDramConfig &, std::uint64_t);
        std::uint64_t (*get)(const mem::BankedDramConfig &);
    };
    static constexpr BankedField banked_fields[] = {
#define SPARCH_MEM_SET_U64(member) d.member = v;
#define SPARCH_MEM_SET_UNSIGNED(member)                               \
    d.member = static_cast<unsigned>(v);
#define SPARCH_MEM_FIELD_BANKED(cli_suffix, type, member, key)        \
    {#cli_suffix,                                                     \
     [](mem::BankedDramConfig &d, std::uint64_t v) {                  \
         SPARCH_MEM_SET_##type(member)                                \
     },                                                               \
     [](const mem::BankedDramConfig &d) {                             \
         return static_cast<std::uint64_t>(d.member);                 \
     }},
#include "mem/memory_fields.def"
#undef SPARCH_MEM_SET_U64
#undef SPARCH_MEM_SET_UNSIGNED
    };
    using BankedGet = mem::BankedDramConfig &(*)(SpArchConfig &);
    using BankedGetConst =
        const mem::BankedDramConfig &(*)(const SpArchConfig &);
    const std::tuple<const char *, BankedGet, BankedGetConst>
        banked_blocks[] = {
            {"ddr4",
             [](SpArchConfig &c) -> mem::BankedDramConfig & {
                 return c.memory.ddr4;
             },
             [](const SpArchConfig &c)
                 -> const mem::BankedDramConfig & {
                 return c.memory.ddr4;
             }},
            {"lpddr4",
             [](SpArchConfig &c) -> mem::BankedDramConfig & {
                 return c.memory.lpddr4;
             },
             [](const SpArchConfig &c)
                 -> const mem::BankedDramConfig & {
                 return c.memory.lpddr4;
             }},
        };
    for (const auto &[prefix, get, cget] : banked_blocks) {
        for (const BankedField &field : banked_fields) {
            const std::string name =
                std::string(prefix) + "_" + field.suffix;
            auto set = field.set;
            auto read = field.get;
            k.push_back(
                {name,
                 [name, get, set](SpArchConfig &c,
                                  const std::string &v) {
                     set(get(c), parseU64(v, name));
                 },
                 [cget, read](const SpArchConfig &c) {
                     return std::to_string(read(cget(c)));
                 }});
        }
    }

#define SPARCH_MEM_FIELD_IDEAL(cli_name, type, member, key)           \
    add(#cli_name,                                                    \
        [](SpArchConfig &c, const char *n, const std::string &v) {    \
            SPARCH_MEM_APPLY_##type(c.memory.ideal.member)            \
        },                                                            \
        [](const SpArchConfig &c) {                                   \
            return std::to_string(c.memory.ideal.member);             \
        });
#include "mem/memory_fields.def"

#undef SPARCH_MEM_APPLY_U64
#undef SPARCH_MEM_APPLY_UNSIGNED
}

const std::vector<ConfigKey> &
configKeys()
{
    static const std::vector<ConfigKey> keys = [] {
        std::vector<ConfigKey> k;
        const auto add = [&k](const char *name, auto &&fn,
                              auto &&render) {
            k.push_back({name,
                         [name, fn](SpArchConfig &c,
                                    const std::string &v) {
                             fn(c, name, v);
                         },
                         render});
        };

        // Generated from core/config_fields.def: one add() per
        // registry entry, in registry order (which test_cli pins via
        // configKeyList), with the parse/render body chosen by the
        // entry's TYPE token. The memory slot expands to
        // addMemoryKeys() above. A registry entry naming a dead
        // member fails to compile right here.
#define SPARCH_APPLY_U64(member) c.member = parseU64(v, n);
#define SPARCH_APPLY_UNSIGNED(member)                                 \
    c.member = static_cast<unsigned>(parseU64(v, n));
#define SPARCH_APPLY_BOOL(member) c.member = parseBool(v, n);
#define SPARCH_APPLY_GHZ(member) c.member = parseDouble(v, n) * 1e9;
#define SPARCH_APPLY_ENUM_ReplacementPolicy(member)                   \
    c.member = parseEnumText(n, kReplacementTexts, v);
#define SPARCH_APPLY_ENUM_SchedulerKind(member)                       \
    c.member = parseEnumText(n, kSchedulerTexts, v);

#define SPARCH_RENDER_U64(member) return std::to_string(c.member);
#define SPARCH_RENDER_UNSIGNED(member)                                \
    return std::to_string(c.member);
#define SPARCH_RENDER_BOOL(member) return fmtBool(c.member);
#define SPARCH_RENDER_GHZ(member) return fmtDouble(c.member / 1e9);
#define SPARCH_RENDER_ENUM_ReplacementPolicy(member)                  \
    return renderEnumText(kReplacementTexts, c.member);
#define SPARCH_RENDER_ENUM_SchedulerKind(member)                      \
    return renderEnumText(kSchedulerTexts, c.member);

#define SPARCH_CONFIG_FIELD(cli_name, type, member, key)              \
    add(#cli_name,                                                    \
        [](SpArchConfig &c, const char *n, const std::string &v) {    \
            SPARCH_APPLY_##type(member)                               \
        },                                                            \
        [](const SpArchConfig &c) -> std::string {                    \
            SPARCH_RENDER_##type(member)                              \
        });
#define SPARCH_CONFIG_MEMORY() addMemoryKeys(k, add);
#include "core/config_fields.def"

#undef SPARCH_APPLY_U64
#undef SPARCH_APPLY_UNSIGNED
#undef SPARCH_APPLY_BOOL
#undef SPARCH_APPLY_GHZ
#undef SPARCH_APPLY_ENUM_ReplacementPolicy
#undef SPARCH_APPLY_ENUM_SchedulerKind
#undef SPARCH_RENDER_U64
#undef SPARCH_RENDER_UNSIGNED
#undef SPARCH_RENDER_BOOL
#undef SPARCH_RENDER_GHZ
#undef SPARCH_RENDER_ENUM_ReplacementPolicy
#undef SPARCH_RENDER_ENUM_SchedulerKind
        return k;
    }();
    return keys;
}


} // namespace

std::string
configKeyList()
{
    std::string out;
    for (const ConfigKey &key : configKeys()) {
        if (!out.empty())
            out += ' ';
        out += key.name;
    }
    return out;
}

void
applyConfigOption(SpArchConfig &config, const std::string &key,
                  const std::string &value)
{
    for (const ConfigKey &entry : configKeys()) {
        if (entry.name == key) {
            entry.apply(config, value);
            return;
        }
    }
    fatal("unknown config key '", key, "'; valid keys: ",
          configKeyList());
}

std::string
renderConfigValue(const SpArchConfig &config, const std::string &key)
{
    for (const ConfigKey &entry : configKeys())
        if (entry.name == key)
            return entry.render(config);
    fatal("unknown config key '", key, "'; valid keys: ",
          configKeyList());
}

std::string
writeConfigOverrides(const SpArchConfig &config,
                     const SpArchConfig &base)
{
    std::string out;
    for (const ConfigKey &entry : configKeys()) {
        const std::string value = entry.render(config);
        if (value == entry.render(base))
            continue;
        if (!out.empty())
            out += ',';
        out += entry.name;
        out += '=';
        out += value;
    }
    return out;
}

SpArchConfig
parseConfigOverrides(const std::string &text, const SpArchConfig &base)
{
    SpArchConfig config = base;
    for (const std::string &piece : splitTrimmed(text, ',')) {
        if (piece.empty())
            continue;
        const std::size_t eq = piece.find('=');
        if (eq == std::string::npos)
            fatal("config override '", piece, "' is not key=value");
        applyConfigOption(config, trimmed(piece.substr(0, eq)),
                          trimmed(piece.substr(eq + 1)));
    }
    return config;
}

namespace
{

/** parseWorkloadSpec before the fail-fast validation pass. */
std::vector<driver::Workload>
parseWorkloadSpecUnchecked(const std::string &raw,
                           const WorkloadDefaults &defaults)
{
    const std::string spec = trimmed(raw);
    if (spec.empty())
        fatal("empty workload spec");

    const std::size_t colon = spec.find(':');
    if (colon == std::string::npos) {
        // A bare token: a matrix file path if it looks like one.
        if (spec.size() > 4 &&
            spec.compare(spec.size() - 4, 4, ".mtx") == 0) {
            return {driver::matrixMarketWorkload(spec)};
        }
        if (spec.size() > 5 &&
            spec.compare(spec.size() - 5, 5, ".scsr") == 0) {
            return {driver::scsrWorkload(spec)};
        }
        fatal("workload spec '", spec,
              "' has no family prefix; expected suite:, rmat:, "
              "uniform:, dnn:, mtx:, scsr: or a path ending in .mtx "
              "or .scsr");
    }

    const std::string family = spec.substr(0, colon);
    const std::string rest = spec.substr(colon + 1);
    if (family == "mtx")
        return {driver::matrixMarketWorkload(rest)};
    if (family == "scsr")
        return {driver::scsrWorkload(rest)};

    if (family == "suite") {
        if (rest == "*") {
            std::vector<driver::Workload> all;
            for (const BenchmarkSpec &s : benchmarkSuite()) {
                all.push_back(driver::suiteWorkload(
                    s.name, defaults.nnz, defaults.seed));
            }
            return all;
        }
        return {driver::suiteWorkload(rest, defaults.nnz,
                                      defaults.seed)};
    }

    if (family == "rmat") {
        const auto [v, ef] = parsePair(rest, "rmat");
        return {driver::rmatWorkload(static_cast<Index>(v),
                                     static_cast<Index>(ef),
                                     defaults.seed)};
    }

    const std::vector<std::string> parts = splitTrimmed(rest, ':');
    if (family == "uniform") {
        if (parts.size() != 2)
            fatal("uniform workload '", spec,
                  "' must be uniform:<rows>x<cols>:<nnz>");
        const auto [rows, cols] = parsePair(parts[0], "uniform");
        return {driver::uniformWorkload(
            static_cast<Index>(rows), static_cast<Index>(cols),
            parseU64(parts[1], "uniform nnz"), defaults.seed)};
    }
    if (family == "dnn") {
        if (parts.size() != 2)
            fatal("dnn workload '", spec,
                  "' must be dnn:<hidden>x<batch>:<density>");
        const auto [hidden, batch] = parsePair(parts[0], "dnn");
        return {driver::dnnLayerWorkload(
            static_cast<Index>(hidden), static_cast<Index>(batch),
            parseDouble(parts[1], "dnn density"), defaults.seed)};
    }
    fatal("unknown workload family '", family,
          "'; expected suite, rmat, uniform, dnn, mtx or scsr");
}

} // namespace

std::vector<driver::Workload>
parseWorkloadSpec(const std::string &raw,
                  const WorkloadDefaults &defaults)
{
    std::vector<driver::Workload> parsed =
        parseWorkloadSpecUnchecked(raw, defaults);
    // Run the eager validators (for .mtx: the reader's own header
    // parse) here, so a bad file fails at spec-parse time instead of
    // minutes later on a batch worker thread.
    for (const driver::Workload &w : parsed)
        w.validate();
    return parsed;
}

driver::ShardPolicy
parseShardPolicy(const std::string &text)
{
    if (text == "row")
        return driver::ShardPolicy::RowBalanced;
    if (text == "nnz")
        return driver::ShardPolicy::NnzBalanced;
    fatal("shard policy '", text, "' is not row or nnz");
}

const char *
shardPolicySpec(driver::ShardPolicy policy)
{
    return policy == driver::ShardPolicy::RowBalanced ? "row" : "nnz";
}

namespace
{

const char *kManifestMagic = "sparch-worker-tasks v1";

} // namespace

void
writeWorkerManifest(
    std::ostream &out,
    const std::vector<const driver::BatchTask *> &tasks)
{
    out << kManifestMagic << '\n';
    for (const driver::BatchTask *task : tasks) {
        const driver::WorkloadSpec &spec = task->workload.spec();
        out << "[task]\n"
            << "id = " << task->id << '\n'
            << "seed = " << task->seed << '\n'
            << "shards = " << task->shards << '\n'
            << "policy = " << shardPolicySpec(task->shardPolicy)
            << '\n'
            << "nnz = " << spec.nnz << '\n'
            << "wseed = " << spec.seed << '\n'
            << "config = " << writeConfigOverrides(task->config)
            << '\n'
            << "workload = " << spec.text << '\n';
    }
}

std::vector<driver::BatchTask>
parseWorkerManifest(std::istream &in, const std::string &what)
{
    std::string line;
    if (!std::getline(in, line) || trimmed(line) != kManifestMagic)
        fatal(what, ": not a worker task manifest (expected '",
              kManifestMagic, "')");

    // The raw key=value fields of one [task] section, materialized
    // only once the section is complete.
    struct RawTask
    {
        std::map<std::string, std::string> fields;
        std::size_t line_no = 0;
    };
    std::vector<RawTask> raw;
    std::size_t line_no = 1;
    while (std::getline(in, line)) {
        ++line_no;
        line = trimmed(line);
        if (line.empty())
            continue;
        if (line == "[task]") {
            raw.push_back({{}, line_no});
            continue;
        }
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos || raw.empty()) {
            fatal(what, ":", line_no, ": '", line,
                  "' is not a [task] section or key = value line");
        }
        raw.back().fields[trimmed(line.substr(0, eq))] =
            trimmed(line.substr(eq + 1));
    }

    std::vector<driver::BatchTask> tasks;
    tasks.reserve(raw.size());
    std::set<std::size_t> seen_ids;
    for (const RawTask &r : raw) {
        const auto where = [&] {
            return what + ":" + std::to_string(r.line_no);
        };
        const auto field = [&](const char *key) -> const std::string & {
            const auto it = r.fields.find(key);
            if (it == r.fields.end())
                fatal(where(), ": task is missing the '", key,
                      "' field");
            return it->second;
        };

        driver::BatchTask task;
        task.id = static_cast<std::size_t>(
            parseU64(field("id"), "task id"));
        if (!seen_ids.insert(task.id).second)
            fatal(where(), ": duplicate task id ", task.id);
        task.seed = parseU64(field("seed"), "task seed");
        task.shards = static_cast<unsigned>(
            parseU64(field("shards"), "task shards"));
        if (task.shards == 0)
            fatal(where(), ": task shards must be >= 1");
        task.shardPolicy = parseShardPolicy(field("policy"));

        WorkloadDefaults defaults;
        defaults.nnz = parseU64(field("nnz"), "task nnz");
        defaults.seed = parseU64(field("wseed"), "task wseed");

        const auto cfg = r.fields.find("config");
        try {
            task.config = parseConfigOverrides(
                cfg == r.fields.end() ? "" : cfg->second);
            std::vector<driver::Workload> parsed =
                parseWorkloadSpec(field("workload"), defaults);
            if (parsed.size() != 1) {
                fatal("workload spec '", field("workload"),
                      "' names ", parsed.size(),
                      " workloads; manifest tasks must name exactly "
                      "one");
            }
            task.workload = std::move(parsed.front());
        } catch (const FatalError &e) {
            fatal(where(), ": ", fatalDetail(e));
        }
        tasks.push_back(std::move(task));
    }
    return tasks;
}

std::vector<driver::BatchTask>
parseWorkerManifestFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open worker task manifest '", path, "'");
    return parseWorkerManifest(in, path);
}

GridSpec
parseGridSpec(std::istream &in, const std::string &what)
{
    GridSpec grid;
    grid.configs.clear();

    enum class Section
    {
        Top,
        Config,
        Workloads
    };
    Section section = Section::Top;
    SpArchConfig *current_config = nullptr;
    // Workload specs are collected and materialized at the end so
    // top-level defaults (nnz, wseed) apply wherever they appear.
    std::vector<std::string> workload_specs;
    std::string raw;
    std::size_t line_no = 0;

    auto where = [&] { return what + ":" + std::to_string(line_no); };

    while (std::getline(in, raw)) {
        ++line_no;
        std::string line = raw;
        const std::size_t hash = line.find_first_of("#;");
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        line = trimmed(line);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                fatal(where(), ": unterminated section '", line, "'");
            const std::string name =
                trimmed(line.substr(1, line.size() - 2));
            if (name == "workloads") {
                section = Section::Workloads;
                current_config = nullptr;
            } else if (name.rfind("config", 0) == 0) {
                std::string label = trimmed(name.substr(6));
                if (label.empty())
                    label = "config-" +
                            std::to_string(grid.configs.size());
                grid.configs.emplace_back(label, SpArchConfig{});
                current_config = &grid.configs.back().second;
                section = Section::Config;
            } else {
                fatal(where(), ": unknown section [", name,
                      "]; expected [config <label>] or [workloads]");
            }
            continue;
        }

        if (section == Section::Workloads) {
            workload_specs.push_back(line);
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            fatal(where(), ": '", line, "' is not key = value");
        const std::string key = trimmed(line.substr(0, eq));
        const std::string value = trimmed(line.substr(eq + 1));

        if (section == Section::Config) {
            try {
                applyConfigOption(*current_config, key, value);
            } catch (const FatalError &e) {
                fatal(where(), ": ", fatalDetail(e));
            }
            continue;
        }

        // Top-level sweep settings.
        if (key == "nnz") {
            grid.defaults.nnz = parseU64(value, key);
        } else if (key == "nnz_scale") {
            grid.nnzScales.clear();
            for (const std::string &piece : splitTrimmed(value, ',')) {
                if (piece.empty())
                    continue;
                const double factor = parseDouble(piece, "nnz_scale");
                if (!(factor > 0.0))
                    fatal(where(), ": nnz_scale factors must be > 0");
                grid.nnzScales.push_back(factor);
            }
            if (grid.nnzScales.empty())
                fatal(where(), ": nnz_scale needs at least one factor");
        } else if (key == "seeds") {
            grid.seeds = static_cast<unsigned>(parseU64(value, key));
            if (grid.seeds == 0)
                fatal(where(), ": seeds must be >= 1");
        } else if (key == "wseed") {
            grid.defaults.seed = parseU64(value, key);
        } else if (key == "seed") {
            grid.seed = parseU64(value, key);
        } else if (key == "threads") {
            grid.threads =
                static_cast<unsigned>(parseU64(value, key));
        } else if (key == "policy") {
            grid.policy = parseShardPolicy(value);
        } else if (key == "shards") {
            grid.shards.clear();
            for (const std::string &piece : splitTrimmed(value, ' ')) {
                if (piece.empty())
                    continue;
                const auto n = static_cast<unsigned>(
                    parseU64(piece, "shards"));
                if (n == 0)
                    fatal(where(), ": shard count must be >= 1");
                grid.shards.push_back(n);
            }
            if (grid.shards.empty())
                fatal(where(), ": shards needs at least one count");
        } else {
            fatal(where(), ": unknown setting '", key,
                  "'; expected nnz, nnz_scale, seed, seeds, wseed, "
                  "threads, policy or shards");
        }
    }

    // Materialize the workload axis, replicated across the nnz-scale
    // and seed axes (scale-major): replicate r regenerates every spec
    // with wseed + r, so the grid carries `seeds` independent samples
    // of each workload. File specs (mtx:/scsr:) ignore generator
    // seeds (the file *is* the matrix), so they materialize once on the
    // seed axis — replicating them would emit N identical rows
    // masquerading as variance data. Likewise only suite: specs take
    // their size from the grid's nnz target; every other family
    // carries an explicit size in the spec text, so only suite:
    // workloads replicate across nnz_scale (renamed <name>@nnz<target>
    // to keep rows tellable apart).
    const auto spec_uses_seed = [](const std::string &spec) {
        return spec.rfind("mtx:", 0) != 0 && spec.rfind("scsr:", 0) != 0 &&
               !(spec.size() > 4 &&
                 spec.compare(spec.size() - 4, 4, ".mtx") == 0) &&
               !(spec.size() > 5 &&
                 spec.compare(spec.size() - 5, 5, ".scsr") == 0);
    };
    const auto spec_uses_nnz = [](const std::string &spec) {
        return spec.rfind("suite:", 0) == 0;
    };
    const bool scale_axis =
        grid.nnzScales.size() > 1 || grid.nnzScales.front() != 1.0;
    for (const std::string &spec : workload_specs) {
        const bool uses_nnz = spec_uses_nnz(trimmed(spec));
        const std::size_t scale_count =
            uses_nnz ? grid.nnzScales.size() : 1;
        const unsigned replicates =
            spec_uses_seed(trimmed(spec)) ? grid.seeds : 1;
        for (std::size_t s = 0; s < scale_count; ++s) {
            WorkloadDefaults defaults = grid.defaults;
            if (uses_nnz) {
                const long long scaled = std::llround(
                    static_cast<double>(grid.defaults.nnz) *
                    grid.nnzScales[s]);
                if (scaled < 1) {
                    fatal(what, ": workload '", spec,
                          "': nnz_scale ", grid.nnzScales[s],
                          " scales the nnz target to zero");
                }
                defaults.nnz = static_cast<std::uint64_t>(scaled);
            }
            for (unsigned r = 0; r < replicates; ++r) {
                defaults.seed = grid.defaults.seed + r;
                try {
                    for (driver::Workload &w :
                         parseWorkloadSpec(spec, defaults)) {
                        if (uses_nnz && scale_axis) {
                            w.withName(w.name() + "@nnz" +
                                       std::to_string(defaults.nnz));
                        }
                        grid.workloads.push_back(std::move(w));
                    }
                } catch (const FatalError &e) {
                    fatal(what, ": workload '", spec, "': ",
                          fatalDetail(e));
                }
            }
        }
    }

    if (grid.configs.empty())
        grid.configs.emplace_back("default", SpArchConfig{});
    if (grid.workloads.empty())
        fatal(what, ": grid has no workloads (add a [workloads] "
                    "section)");
    return grid;
}

GridSpec
parseGridSpecFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open grid spec '", path, "'");
    return parseGridSpec(in, path);
}

std::size_t
gridPointCount(const GridSpec &grid)
{
    return grid.configs.size() * grid.workloads.size() *
           grid.shards.size();
}

GridPointRef
gridPointAt(const GridSpec &grid, std::size_t id)
{
    SPARCH_ASSERT(id < gridPointCount(grid),
                  "grid point id out of range");
    const std::size_t n_shards = grid.shards.size();
    const std::size_t n_workloads = grid.workloads.size();
    GridPointRef ref;
    ref.id = id;
    ref.shardIdx = id % n_shards;
    ref.workloadIdx = (id / n_shards) % n_workloads;
    ref.configIdx = id / (n_shards * n_workloads);
    return ref;
}

} // namespace cli
} // namespace sparch
