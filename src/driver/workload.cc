#include "driver/workload.hh"

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "baselines/benchmarks.hh"
#include "common/format.hh"
#include "common/logging.hh"
#include "matrix/generators.hh"
#include "matrix/matrix_market.hh"
#include "matrix/rmat.hh"
#include "matrix/scsr.hh"

namespace sparch
{
namespace driver
{

Workload::Workload(std::string name,
                   std::function<CsrMatrix()> make_left,
                   std::function<CsrMatrix()> make_right)
    : name_(std::move(name)), data_(std::make_shared<Data>())
{
    SPARCH_ASSERT(static_cast<bool>(make_left),
                  "workload '", name_, "' has no left generator");
    data_->make_left = std::move(make_left);
    data_->make_right = std::move(make_right);
}

Workload &
Workload::withValidator(std::function<void()> validator)
{
    SPARCH_ASSERT(data_, "withValidator() on an empty workload");
    data_->validator = std::move(validator);
    return *this;
}

Workload &
Workload::withIdentity(std::string identity)
{
    identity_ = std::move(identity);
    return *this;
}

Workload &
Workload::withSpec(std::string text, std::uint64_t nnz,
                   std::uint64_t seed)
{
    SPARCH_ASSERT(!text.empty(), "withSpec() with empty spec text");
    spec_.text = std::move(text);
    spec_.nnz = nnz;
    spec_.seed = seed;
    return *this;
}

const WorkloadSpec &
Workload::spec() const
{
    SPARCH_ASSERT(hasSpec(), "workload '", name_,
                  "' carries no CLI spec");
    return spec_;
}

Workload &
Workload::withName(std::string name)
{
    SPARCH_ASSERT(!identity_.empty(),
                  "renaming workload '", name_,
                  "' without an explicit cache identity");
    name_ = std::move(name);
    return *this;
}

void
Workload::validate() const
{
    if (data_ && data_->validator)
        data_->validator();
}

const CsrMatrix &
Workload::left() const
{
    SPARCH_ASSERT(data_, "left() on an empty workload");
    // sparch-audit: allow(schedule-point-coverage, lazy build under
    // one mutex - whichever thread wins builds the same matrix)
    std::lock_guard<std::mutex> lock(data_->mutex);
    if (!data_->left)
        data_->left = data_->make_left();
    return *data_->left;
}

const CsrMatrix &
Workload::right() const
{
    SPARCH_ASSERT(data_, "right() on an empty workload");
    // sparch-audit: allow(schedule-point-coverage, lazy build under
    // one mutex - whichever thread wins builds the same matrix)
    std::lock_guard<std::mutex> lock(data_->mutex);
    if (!data_->make_right) {
        if (!data_->left)
            data_->left = data_->make_left();
        return *data_->left;
    }
    if (!data_->right)
        data_->right = data_->make_right();
    return *data_->right;
}

bool
Workload::squared() const
{
    SPARCH_ASSERT(data_, "squared() on an empty workload");
    return !data_->make_right;
}

Workload
suiteWorkload(const std::string &benchmark_name,
              std::uint64_t target_nnz, std::uint64_t seed)
{
    const BenchmarkSpec &spec = findBenchmark(benchmark_name);
    Workload w(benchmark_name, [spec, target_nnz, seed] {
        return generateBenchmark(spec, defaultScale(spec, target_nnz),
                                 seed);
    });
    w.withIdentity("suite:" + benchmark_name +
                   "|nnz=" + std::to_string(target_nnz) +
                   "|seed=" + std::to_string(seed));
    w.withSpec("suite:" + benchmark_name, target_nnz, seed);
    return w;
}

Workload
rmatWorkload(Index vertices, Index edge_factor, std::uint64_t seed)
{
    std::string name = "rmat-" + std::to_string(vertices) + "-x" +
                       std::to_string(edge_factor);
    Workload w(name, [vertices, edge_factor, seed] {
        return rmatGenerate(vertices, edge_factor, seed);
    });
    w.withIdentity(name + "|seed=" + std::to_string(seed));
    w.withSpec("rmat:" + std::to_string(vertices) + "x" +
                   std::to_string(edge_factor),
               0, seed);
    return w;
}

Workload
uniformWorkload(Index rows, Index cols, std::uint64_t nnz,
                std::uint64_t seed)
{
    std::string name = "uniform-" + std::to_string(rows) + "x" +
                       std::to_string(cols) + "-" +
                       std::to_string(nnz);
    Workload w(name, [rows, cols, nnz, seed] {
        return generateUniform(rows, cols, nnz, seed);
    });
    w.withIdentity(name + "|seed=" + std::to_string(seed));
    w.withSpec("uniform:" + std::to_string(rows) + "x" +
                   std::to_string(cols) + ":" + std::to_string(nnz),
               0, seed);
    return w;
}

namespace
{

/**
 * Display name of a file workload: the file's stem, so the same
 * matrix sweeps under the same name — and produces the same CSV
 * bytes — whether it is read from data/m.mtx or data/m.scsr, and
 * from whichever directory the sweep runs in. The cache identity
 * keeps the full path.
 */
std::string
fileWorkloadName(const std::string &path)
{
    return std::filesystem::path(path).stem().string();
}

} // namespace

Workload
matrixMarketWorkload(const std::string &path)
{
    Workload w(fileWorkloadName(path), [path] {
        return readMatrixMarketFile(path);
    });
    // Probe the file eagerly so a bad path surfaces when the workload
    // is registered, not minutes later on a batch worker thread. The
    // probe is the reader's own header parser, so everything it
    // accepts — and nothing it rejects — reaches a worker thread.
    w.withValidator([path] {
        std::ifstream in(path);
        if (!in)
            fatal("workload '", path, "': cannot open file");
        try {
            readMatrixMarketHeader(in);
        } catch (const FatalError &e) {
            fatal("workload '", path, "': ", fatalDetail(e));
        }
    });

    // Fold a hash of the file's bytes into the cache identity so a
    // rewritten input never serves stale cached results (size+mtime
    // was fragile: converts and same-second rewrites preserve both).
    // A missing or unreadable file keeps the bare path; the validator
    // rejects it at registration anyway.
    std::ostringstream identity;
    identity << "mtx:" << path;
    try {
        identity << "|fnv=" << std::hex << fnv1aFile(path);
    } catch (const FatalError &) {
    }
    w.withIdentity(identity.str());
    w.withSpec("mtx:" + path, 0, 0);
    return w;
}

Workload
scsrWorkload(const std::string &path)
{
    Workload w(fileWorkloadName(path), [path] {
        return readScsr(path);
    });
    w.withValidator([path] {
        try {
            readScsrHeader(path);
        } catch (const FatalError &e) {
            fatal("workload '", path, "': ", fatalDetail(e));
        }
    });

    // The header checksum covers the section content hash, so it pins
    // the file's full contents — one page read, no re-hash of a
    // GB-scale file. Invalid files keep the bare path identity and
    // are rejected loudly by the validator at registration.
    std::ostringstream identity;
    identity << "scsr:" << path;
    try {
        identity << "|sum=" << std::hex
                 << readScsrHeader(path).header_checksum;
    } catch (const FatalError &) {
    }
    w.withIdentity(identity.str());
    w.withSpec("scsr:" + path, 0, 0);
    return w;
}

Workload
dnnLayerWorkload(Index hidden, Index batch, double density,
                 std::uint64_t seed)
{
    std::string name = "dnn-" + std::to_string(hidden) + "x" +
                       std::to_string(batch);
    const auto weight_nnz = static_cast<std::uint64_t>(
        density * hidden * hidden);
    const auto act_nnz = static_cast<std::uint64_t>(
        density * hidden * batch);
    Workload w(
        name,
        [hidden, weight_nnz, seed] {
            return generateUniform(hidden, hidden, weight_nnz, seed);
        },
        [hidden, batch, act_nnz, seed] {
            return generateUniform(hidden, batch, act_nnz, seed + 1);
        });
    // Full-precision density: the default 6-significant-digit ostream
    // rendering would collide identities (and thus cache keys) of
    // densities that differ below it but still change the operands.
    w.withIdentity(name + "|density=" + fmtDouble(density) +
                   "|seed=" + std::to_string(seed));
    w.withSpec("dnn:" + std::to_string(hidden) + "x" +
                   std::to_string(batch) + ":" + fmtDouble(density),
               0, seed);
    return w;
}

} // namespace driver
} // namespace sparch
