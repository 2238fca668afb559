#include "driver/batch_runner.hh"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <sstream>

#include "check/invariants.hh"
#include "check/schedule.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "driver/result_cache.hh"
#include "exec/local_executors.hh"

namespace sparch
{
namespace driver
{

BatchRunner::BatchRunner(unsigned threads, std::uint64_t base_seed)
    : threads_(threads), base_seed_(base_seed)
{}

std::uint64_t
BatchRunner::taskSeed(std::uint64_t base_seed, std::size_t id)
{
    // SplitMix64 finalizer over base ^ id: adjacent ids decorrelate.
    return splitMix64(base_seed ^ (static_cast<std::uint64_t>(id) +
                                   0x9e3779b97f4a7c15ULL));
}

std::size_t
BatchRunner::add(std::string config_label, const SpArchConfig &config,
                 Workload workload, unsigned shards, ShardPolicy policy)
{
    SPARCH_ASSERT(workload.valid(), "adding an empty workload");
    BatchTask task;
    task.id = tasks_.size();
    task.configLabel = std::move(config_label);
    task.config = config;
    task.workload = std::move(workload);
    task.seed = taskSeed(base_seed_, task.id);
    task.shards = std::max(shards, 1u);
    task.shardPolicy = policy;
    tasks_.push_back(std::move(task));
    return tasks_.back().id;
}

std::size_t
BatchRunner::addWithSeed(std::string config_label,
                         const SpArchConfig &config, Workload workload,
                         std::uint64_t seed, unsigned shards,
                         ShardPolicy policy)
{
    const std::size_t id = add(std::move(config_label), config,
                               std::move(workload), shards, policy);
    tasks_[id].seed = seed;
    return id;
}

void
BatchRunner::addGrid(
    const std::vector<std::pair<std::string, SpArchConfig>> &configs,
    const std::vector<Workload> &workloads)
{
    for (const auto &[label, config] : configs)
        for (const Workload &w : workloads)
            add(label, config, w);
}

void
BatchRunner::addShardSweep(
    const std::vector<std::pair<std::string, SpArchConfig>> &configs,
    const std::vector<Workload> &workloads,
    const std::vector<unsigned> &shard_counts, ShardPolicy policy)
{
    for (const auto &[label, config] : configs)
        for (const Workload &w : workloads)
            for (unsigned shards : shard_counts)
                add(label, config, w, shards, policy);
}

namespace
{

/**
 * --check of a sharded task without the stacked product: each shard's
 * block against the reference SpGEMM of its row block of A, the block
 * counts against the merged count, and the merged statistics.
 */
void
validateShards(const BatchTask &task, const ShardedResult &sharded,
               const SpArchResult &merged, const std::string &what)
{
    const CsrMatrix &a = task.workload.left();
    std::size_t block_nnz = 0;
    for (std::size_t i = 0; i < sharded.shards.size(); ++i) {
        const ShardRange &r = sharded.plan.ranges()[i];
        const SpArchResult &shard = sharded.shards[i];
        check::validateProduct(a.rowSlice(r.begin, r.end),
                               task.workload.right(), shard,
                               shard.resultNnz,
                               what + " shard " + std::to_string(i));
        block_nnz += shard.resultNnz;
    }
    SPARCH_ASSERT(block_nnz == merged.resultNnz, what, ": merged nnz ",
                  merged.resultNnz, " != shard nnz sum ", block_nnz);
    check::validateResultStats(merged, what);
}

} // namespace

BatchRecord
BatchRunner::simulateTask(const BatchTask &task, bool keep_products,
                          unsigned shard_threads)
{
    BatchRecord record;
    record.id = task.id;
    record.configLabel = task.configLabel;
    record.workloadName = task.workload.name();
    record.seed = task.seed;
    record.shards = task.shards;

    // --check validates the product while it is in hand; it is
    // dropped below and never crosses an executor pipe. Without
    // either, the product is only counted.
    const bool deep_check = check::deepChecksEnabled();
    const std::string what =
        task.configLabel + " / " + task.workload.name();
    if (task.shards > 1) {
        // The shards run on shard_threads workers: the executor's
        // spare share when it has more workers than tasks, else
        // serially. The merged measurements are identical either way.
        // --check reads the shard blocks, never the stacked copy.
        const ShardedSimulator sim(task.config, task.shardPolicy,
                                   task.shards, shard_threads);
        ShardedResult sharded =
            sim.multiply(task.workload.left(), task.workload.right(),
                         keep_products ? ShardProducts::Stacked
                         : deep_check  ? ShardProducts::Blocks
                                       : ShardProducts::None);
        record.sim = std::move(sharded.combined);
        if (deep_check)
            validateShards(task, sharded, record.sim, what);
    } else {
        const SpArchSimulator sim(task.config);
        record.sim = sim.multiply(task.workload.left(),
                                  task.workload.right(),
                                  keep_products || deep_check
                                      ? ProductMode::Build
                                      : ProductMode::Count);
        if (deep_check) {
            check::validateProduct(task.workload.left(),
                                   task.workload.right(), record.sim,
                                   record.sim.resultNnz, what);
        }
    }
    record.resultNnz = record.sim.resultNnz;
    if (!keep_products)
        record.sim.result = CsrMatrix();
    return record;
}

std::vector<BatchRecord>
BatchRunner::run() const
{
    return run(nullptr, nullptr);
}

std::vector<BatchRecord>
BatchRunner::run(ResultCache *cache, RunStats *stats) const
{
    // ThreadPoolExecutor runs one thread inline; 0 would mean all
    // cores.
    exec::ThreadPoolExecutor pooled(std::max(threads_, 1u));
    return run(pooled, cache, stats);
}

std::vector<BatchRecord>
BatchRunner::run(exec::Executor &executor, ResultCache *cache,
                 RunStats *stats) const
{
    // Cached records lack the product matrix, and out-of-process
    // executors cannot ship one back over a pipe.
    const bool use_cache = cache != nullptr && !keep_products_;
    if (keep_products_ && !executor.inProcess()) {
        fatal("keepProducts(true) needs an in-process executor; '",
              executor.name(),
              "' streams records over pipes and drops the product "
              "matrices");
    }

    // Satisfy what the cache can up front: lookups are hash probes,
    // so a fully warm sweep never touches the executor at all.
    std::vector<BatchRecord> records(tasks_.size());
    std::vector<char> have(tasks_.size(), 0);
    std::vector<const BatchTask *> misses;
    misses.reserve(tasks_.size());
    for (const BatchTask &task : tasks_) {
        if (use_cache) {
            if (const BatchRecord *hit =
                    cache->find(ResultCache::taskKey(task))) {
                records[task.id] = *hit;
                // Identity hashes the config contents and workload
                // identity, not the grid position or display label;
                // restamp those from this grid.
                records[task.id].id = task.id;
                records[task.id].configLabel = task.configLabel;
                records[task.id].workloadName = task.workload.name();
                have[task.id] = 1;
                continue;
            }
        }
        misses.push_back(&task);
    }

    // Stream completions into the cache, flushing to disk as records
    // arrive: a sweep killed mid-run (or whose workers all died)
    // resumes from everything that finished, not from zero. save()
    // rewrites the whole file, so the flush interval doubles after
    // every flush — total rewrite work stays linear in the sweep size
    // (~2x the final file) instead of quadratic, at the price of a
    // crash window that grows with what is already safely on disk.
    std::size_t unsaved = 0;
    std::size_t flush_interval = 8;
    const auto on_record = [&](const BatchRecord &record) {
        if (!use_cache)
            return;
        SPARCH_SCHEDULE_POINT("batch_runner.flush.record");
        cache->insert(ResultCache::taskKey(tasks_[record.id]),
                      record);
        if (++unsaved >= flush_interval) {
            cache->save();
            unsaved = 0;
            flush_interval *= 2;
        }
    };
    // An in-process executor with more workers than tasks to
    // simulate gives each task its share of the spare ones for its
    // shards; worker processes keep the serial default.
    const unsigned shard_threads =
        executor.inProcess() && !misses.empty()
            ? std::max<unsigned>(
                  1, threads_ / static_cast<unsigned>(misses.size()))
            : 1;
    const auto run_task = [this, shard_threads](const BatchTask &task) {
        return simulateTask(task, keep_products_, shard_threads);
    };

    std::vector<exec::TaskFailure> failures;
    std::vector<BatchRecord> done =
        executor.run(misses, run_task, on_record, failures);
    for (BatchRecord &record : done) {
        SPARCH_ASSERT(record.id < tasks_.size(),
                      "executor returned an unknown task id");
        have[record.id] = 1;
        records[record.id] = std::move(record);
    }
    if (stats != nullptr) {
        stats->simulated = done.size();
        stats->cacheHits =
            tasks_.size() - misses.size();
        stats->failed = failures.size();
        stats->failures.clear();
        stats->failures.reserve(failures.size());
        for (const exec::TaskFailure &f : failures) {
            SPARCH_ASSERT(f.id < tasks_.size(),
                          "executor failed an unknown task id");
            const BatchTask &task = tasks_[f.id];
            stats->failures.push_back({f.id, task.configLabel,
                                       task.workload.name(),
                                       f.error});
        }
    }

    // Failed ids simply have no row; ids and order of the surviving
    // records are unchanged.
    std::vector<BatchRecord> out;
    out.reserve(tasks_.size());
    for (std::size_t id = 0; id < tasks_.size(); ++id)
        if (have[id])
            out.push_back(std::move(records[id]));
    return out;
}

TablePrinter
BatchRunner::toTable(const std::vector<BatchRecord> &records,
                     const std::string &title)
{
    TablePrinter table(title);
    table.header({"config", "workload", "shards", "GFLOPS", "cycles",
                  "DRAM MB", "BW %", "hit rate %"});
    for (const BatchRecord &r : records) {
        table.row({r.configLabel, r.workloadName,
                   std::to_string(r.shards),
                   TablePrinter::num(r.sim.gflops),
                   std::to_string(r.sim.cycles),
                   TablePrinter::num(
                       static_cast<double>(r.sim.bytesTotal) / 1e6, 3),
                   TablePrinter::num(
                       100.0 * r.sim.bandwidthUtilization, 1),
                   TablePrinter::num(100.0 * r.sim.prefetchHitRate,
                                     1)});
    }
    return table;
}

namespace
{

/** RFC-4180 escaping: labels and workload names (e.g. Matrix Market
 * file paths) may contain commas, quotes, or newlines. */
std::string
csvField(const std::string &value)
{
    if (value.find_first_of(",\"\n\r") == std::string::npos)
        return value;
    std::string quoted = "\"";
    for (char c : value) {
        if (c == '"')
            quoted += '"';
        quoted += c;
    }
    quoted += '"';
    return quoted;
}

/**
 * Split one RFC-4180 line into fields (quotes and doubled quotes
 * honoured; embedded newlines are not, since callers read line by
 * line). Returns false on unbalanced quoting.
 */
bool
splitCsvLine(const std::string &line, std::vector<std::string> &fields)
{
    fields.clear();
    std::string current;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        const char c = line[i];
        if (quoted) {
            if (c == '"') {
                if (i + 1 < line.size() && line[i + 1] == '"') {
                    current += '"';
                    ++i;
                } else {
                    quoted = false;
                }
            } else {
                current += c;
            }
        } else if (c == '"' && current.empty()) {
            quoted = true;
        } else if (c == ',') {
            fields.push_back(std::move(current));
            current.clear();
        } else if (c == '\r' && i + 1 == line.size()) {
            // Tolerate CRLF files.
        } else {
            current += c;
        }
    }
    if (quoted)
        return false;
    fields.push_back(std::move(current));
    return true;
}

/** Strict full-token numeric parses; false on trailing garbage. */
bool
parseU64(const std::string &s, std::uint64_t &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtoull(s.c_str(), &end, 10);
    return end == s.c_str() + s.size();
}

bool
parseF64(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(s.c_str(), &end);
    return end == s.c_str() + s.size();
}

/** Columns in the CSV schema (driver/record_fields.def). */
constexpr std::size_t kCsvFieldCount =
    0
#define SPARCH_RECORD_FIELD(column, type, member) +1
#include "driver/record_fields.def"
    ;
static_assert(kCsvFieldCount == 23,
              "the CSV schema changed: grow record_fields.def "
              "append-only and update this pin (reordering or "
              "renaming invalidates persisted caches and the fig12 "
              "byte-identity pins)");

} // namespace

// csvHeader/writeCsvRow/parseCsvRow are all generated from
// driver/record_fields.def, so the header, the writer and the parser
// share one column list and cannot drift apart.

const char *
BatchRunner::csvHeader()
{
    static const std::string header = [] {
        std::string h;
#define SPARCH_RECORD_FIELD(column, type, member)                     \
    if (!h.empty())                                                   \
        h += ',';                                                     \
    h += #column;
#include "driver/record_fields.def"
        return h;
    }();
    return header.c_str();
}

void
BatchRunner::writeCsvRow(const BatchRecord &r, std::ostream &out)
{
    // max_digits10 makes every double round-trip exactly through the
    // decimal text, so records reloaded from a result cache reproduce
    // the original measurements (and CSV bytes) bit for bit.
    const auto old_precision =
        out.precision(std::numeric_limits<double>::max_digits10);
    const char *sep = "";
#define SPARCH_CSV_WRITE_U64(member) out << r.member;
#define SPARCH_CSV_WRITE_SIZE(member) out << r.member;
#define SPARCH_CSV_WRITE_UNSIGNED(member) out << r.member;
#define SPARCH_CSV_WRITE_F64(member) out << r.member;
#define SPARCH_CSV_WRITE_STR(member) out << csvField(r.member);
#define SPARCH_RECORD_FIELD(column, type, member)                     \
    out << sep;                                                       \
    sep = ",";                                                        \
    SPARCH_CSV_WRITE_##type(member)
#include "driver/record_fields.def"
#undef SPARCH_CSV_WRITE_U64
#undef SPARCH_CSV_WRITE_SIZE
#undef SPARCH_CSV_WRITE_UNSIGNED
#undef SPARCH_CSV_WRITE_F64
#undef SPARCH_CSV_WRITE_STR
    out << '\n';
    out.precision(old_precision);
}

bool
BatchRunner::parseCsvRow(const std::string &line, BatchRecord &record)
{
    std::vector<std::string> f;
    if (!splitCsvLine(line, f) || f.size() != kCsvFieldCount)
        return false;

    BatchRecord r;
    std::size_t i = 0;
    bool ok = true;
#define SPARCH_CSV_PARSE_U64(member) ok = parseU64(f[i], r.member);
#define SPARCH_CSV_PARSE_F64(member) ok = parseF64(f[i], r.member);
#define SPARCH_CSV_PARSE_STR(member) r.member = f[i];
#define SPARCH_CSV_PARSE_SIZE(member)                                 \
    {                                                                 \
        std::uint64_t u = 0;                                          \
        ok = parseU64(f[i], u);                                       \
        r.member = static_cast<std::size_t>(u);                       \
    }
#define SPARCH_CSV_PARSE_UNSIGNED(member)                             \
    {                                                                 \
        std::uint64_t u = 0;                                          \
        ok = parseU64(f[i], u);                                       \
        r.member = static_cast<unsigned>(u);                          \
    }
#define SPARCH_RECORD_FIELD(column, type, member)                     \
    if (ok) {                                                         \
        SPARCH_CSV_PARSE_##type(member)                               \
        ++i;                                                          \
    }
#include "driver/record_fields.def"
#undef SPARCH_CSV_PARSE_U64
#undef SPARCH_CSV_PARSE_F64
#undef SPARCH_CSV_PARSE_STR
#undef SPARCH_CSV_PARSE_SIZE
#undef SPARCH_CSV_PARSE_UNSIGNED
    if (!ok)
        return false;
    record = std::move(r);
    return true;
}

void
BatchRunner::writeCsv(const std::vector<BatchRecord> &records,
                      std::ostream &out)
{
    out << csvHeader() << '\n';
    for (const BatchRecord &r : records)
        writeCsvRow(r, out);
}

} // namespace driver
} // namespace sparch
