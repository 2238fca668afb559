#include "matrix/scsr_convert.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"
#include "matrix/matrix_market.hh"
#include "matrix/mm_scan.hh"
#include "matrix/mmap_file.hh"
#include "matrix/scsr.hh"

namespace sparch
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/**
 * Fixed-capacity MPMC queue. push blocks while full, pop blocks while
 * empty; close() wakes everyone, making push fail and pop drain the
 * backlog then return nullopt. The close-aborts-push behaviour is the
 * pipeline's error shutdown: one fail() call unblocks every stage.
 */
template <typename T>
class BoundedQueue
{
  public:
    explicit BoundedQueue(std::size_t capacity) : capacity_(capacity) {}

    bool
    push(T item)
    {
        std::unique_lock lock(m_);
        can_push_.wait(lock,
                       [&] { return closed_ || items_.size() < capacity_; });
        if (closed_)
            return false;
        items_.push_back(std::move(item));
        can_pop_.notify_one();
        return true;
    }

    std::optional<T>
    pop()
    {
        std::unique_lock lock(m_);
        can_pop_.wait(lock, [&] { return closed_ || !items_.empty(); });
        if (items_.empty())
            return std::nullopt;
        T item = std::move(items_.front());
        items_.pop_front();
        can_push_.notify_one();
        return item;
    }

    void
    close()
    {
        std::lock_guard lock(m_);
        closed_ = true;
        can_push_.notify_all();
        can_pop_.notify_all();
    }

  private:
    std::mutex m_;
    std::condition_variable can_push_;
    std::condition_variable can_pop_;
    std::deque<T> items_;
    std::size_t capacity_;
    bool closed_ = false;
};

/** First error wins; later ones are concurrent echoes of the same. */
class ErrorSlot
{
  public:
    void
    set(std::string msg)
    {
        std::lock_guard lock(m_);
        if (msg_.empty())
            msg_ = std::move(msg);
    }

    std::string
    take()
    {
        std::lock_guard lock(m_);
        return msg_;
    }

  private:
    std::mutex m_;
    std::string msg_;
};

/** One pool buffer's worth of raw file bytes, cut at a line boundary. */
struct Chunk {
    std::vector<char> bytes;
    std::size_t len = 0;
    std::uint64_t seq = 0;
};

/** The parsed form of one chunk: 0-based entries, mirrors inlined. */
struct Batch {
    std::vector<mmscan::Entry> entries;
    std::uint64_t file_entries = 0; ///< entries before mirroring
    std::uint64_t seq = 0;
    std::string error;
};

struct PipelineAccounting {
    std::uint64_t chunks = 0;
    std::uint64_t pool_bytes = 0;
};

/**
 * Stream the data region of a Matrix Market file through the
 * reader -> parser-pool -> in-order-consumer pipeline. apply() runs
 * on the calling thread, in file order, once per chunk; it returns an
 * empty string or an error message (it must not throw: the worker
 * threads are still running). Returns the number of coordinate lines
 * consumed. Fatal — after joining every thread — on any error.
 */
template <typename Apply>
std::uint64_t
streamEntries(const std::string &path, std::uint64_t data_offset,
              const MatrixMarketHeader &header, const ConvertOptions &opts,
              PipelineAccounting &acct, Apply &&apply)
{
    const unsigned buffers = std::max(2u, opts.buffers);
    const unsigned workers = std::max(1u, opts.parser_threads);
    const std::size_t buffer_bytes =
        std::max<std::size_t>(4096, opts.buffer_bytes);

    std::vector<Chunk> chunks(buffers);
    for (Chunk &c : chunks)
        c.bytes.resize(buffer_bytes);
    std::vector<Batch> batches(buffers);
    std::vector<std::vector<mmscan::Entry>> raws(workers);

    BoundedQueue<unsigned> free_chunks(buffers);
    BoundedQueue<unsigned> filled(buffers);
    BoundedQueue<unsigned> free_batches(buffers);
    BoundedQueue<unsigned> parsed(buffers);
    for (unsigned i = 0; i < buffers; ++i) {
        free_chunks.push(i);
        free_batches.push(i);
    }

    ErrorSlot error;
    auto fail = [&](std::string msg) {
        error.set(std::move(msg));
        free_chunks.close();
        filled.close();
        free_batches.close();
        parsed.close();
    };

    std::thread reader([&] {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            fail("matrix market: cannot open '" + path + "'");
            return;
        }
        in.seekg(static_cast<std::streamoff>(data_offset));
        std::vector<char> carry;
        carry.reserve(buffer_bytes);
        std::uint64_t seq = 0;
        bool eof = false;
        while (!eof) {
            const auto slot = free_chunks.pop();
            if (!slot)
                return; // error shutdown
            Chunk &c = chunks[*slot];
            std::memcpy(c.bytes.data(), carry.data(), carry.size());
            const std::size_t want = buffer_bytes - carry.size();
            in.read(c.bytes.data() + carry.size(),
                    static_cast<std::streamsize>(want));
            const std::size_t got = static_cast<std::size_t>(in.gcount());
            const std::size_t total = carry.size() + got;
            carry.clear();
            eof = got < want;
            std::size_t cut = total;
            if (!eof) {
                // Hold the trailing partial line back for the next
                // chunk so entries never straddle a chunk boundary.
                while (cut > 0 && c.bytes[cut - 1] != '\n')
                    --cut;
                if (cut == 0) {
                    fail("matrix market: '" + path +
                         "' has a line longer than the " +
                         std::to_string(buffer_bytes) +
                         "-byte read buffer");
                    return;
                }
                carry.assign(c.bytes.begin() + cut, c.bytes.begin() + total);
            }
            c.len = cut;
            c.seq = seq++;
            if (!filled.push(*slot))
                return;
        }
        filled.close();
    });

    const bool pattern = header.field == MmField::Pattern;
    const bool symmetric = header.symmetry == MmSymmetry::Symmetric;
    const std::uint64_t rows = header.rows;
    const std::uint64_t cols = header.cols;
    std::atomic<unsigned> live_parsers{workers};
    auto parse_worker = [&](unsigned id) {
        std::vector<mmscan::Entry> &raw = raws[id];
        for (;;) {
            // Take the batch slot before the chunk: a parser that holds
            // a chunk always has somewhere to parse it into, so the
            // lowest unparsed seq never waits on slots held by later
            // chunks parked in the consumer's pending map.
            const auto bi = free_batches.pop();
            if (!bi)
                break;
            const auto ci = filled.pop();
            if (!ci) {
                // End of input: pass the slot on to a parser still
                // waiting for one, so it too can see the end and exit.
                free_batches.push(*bi);
                break;
            }
            const Chunk &c = chunks[*ci];
            Batch &b = batches[*bi];
            b.seq = c.seq;
            b.entries.clear();
            b.file_entries = 0;
            b.error.clear();
            raw.clear();
            if (mmscan::parseChunk(c.bytes.data(), c.bytes.data() + c.len,
                                   pattern, raw) < 0) {
                b.error =
                    "matrix market: malformed entry line in '" + path + "'";
            } else {
                b.file_entries = raw.size();
                b.entries.reserve(raw.size() * (symmetric ? 2 : 1));
                for (const mmscan::Entry &e : raw) {
                    if (e.row < 1 || e.row > rows || e.col < 1 ||
                        e.col > cols) {
                        b.error = "matrix market: coordinate (" +
                                  std::to_string(e.row) + "," +
                                  std::to_string(e.col) +
                                  ") out of range in '" + path + "'";
                        break;
                    }
                    const mmscan::Entry z{e.row - 1, e.col - 1, e.value};
                    b.entries.push_back(z);
                    if (symmetric && z.row != z.col)
                        b.entries.push_back({z.col, z.row, z.value});
                }
            }
            free_chunks.push(*ci);
            if (!parsed.push(*bi))
                break;
        }
        if (live_parsers.fetch_sub(1) == 1)
            parsed.close();
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        pool.emplace_back(parse_worker, i);

    // In-order consumer: batches arrive in any order, apply in seq
    // order so pass 2's scatter preserves file order (which is what
    // makes duplicate summation match CooMatrix::canonicalize).
    std::uint64_t next = 0;
    std::uint64_t file_entries = 0;
    std::map<std::uint64_t, unsigned> pending;
    for (;;) {
        const auto bi = parsed.pop();
        if (!bi)
            break;
        pending.emplace(batches[*bi].seq, *bi);
        while (!pending.empty() && pending.begin()->first == next) {
            const unsigned idx = pending.begin()->second;
            pending.erase(pending.begin());
            Batch &b = batches[idx];
            if (!b.error.empty()) {
                fail(std::move(b.error));
                break;
            }
            std::string apply_error =
                apply(std::span<const mmscan::Entry>(b.entries));
            if (!apply_error.empty()) {
                fail(std::move(apply_error));
                break;
            }
            file_entries += b.file_entries;
            ++next;
            ++acct.chunks;
            free_batches.push(idx);
        }
    }

    reader.join();
    for (std::thread &t : pool)
        t.join();

    std::uint64_t pool_bytes =
        static_cast<std::uint64_t>(buffers + 1) * buffer_bytes; // + carry
    for (const Batch &b : batches)
        pool_bytes += b.entries.capacity() * sizeof(mmscan::Entry);
    for (const auto &raw : raws)
        pool_bytes += raw.capacity() * sizeof(mmscan::Entry);
    acct.pool_bytes = std::max(acct.pool_bytes, pool_bytes);

    const std::string msg = error.take();
    if (!msg.empty())
        fatal(msg);
    return file_entries;
}

/** One scratch slot: column, arrival order within the row, value. */
struct ColVal {
    std::uint32_t col;
    std::uint32_t seq;
    double val;
};

static_assert(sizeof(ColVal) == 16, "scratch slot layout");

} // namespace

ConvertStats
convertMatrixMarketToScsr(const std::string &mtx_path,
                          const std::string &out_path,
                          const ConvertOptions &opts)
{
    ConvertStats stats;
    MatrixMarketHeader header;
    std::uint64_t data_offset = 0;
    {
        std::ifstream in(mtx_path);
        if (!in)
            fatal("matrix market: cannot open '", mtx_path, "'");
        header = readMatrixMarketHeader(in);
        data_offset = static_cast<std::uint64_t>(in.tellg());
    }
    stats.rows = header.rows;
    stats.cols = header.cols;
    stats.bytes_in = std::filesystem::file_size(mtx_path);

    const std::uint64_t rows = header.rows;
    PipelineAccounting acct;

    // Pass 1: count per-row entries (mirrors included). counts[r + 1]
    // holds row r's count, then becomes the start-offset prefix.
    auto t0 = Clock::now();
    std::vector<std::uint64_t> counts(rows + 1, 0);
    const std::uint64_t file_entries = streamEntries(
        mtx_path, data_offset, header, opts, acct,
        [&](std::span<const mmscan::Entry> es) -> std::string {
            for (const mmscan::Entry &e : es)
                ++counts[e.row + 1];
            return {};
        });
    stats.count_seconds = secondsSince(t0);
    if (file_entries != header.entries) {
        fatal("matrix market: '", mtx_path, "' declares ", header.entries,
              " entries but contains ", file_entries);
    }
    stats.entries = file_entries;

    for (std::uint64_t r = 0; r < rows; ++r) {
        // The scratch keeps per-row arrival order in 32 bits.
        if (counts[r + 1] > std::numeric_limits<std::uint32_t>::max())
            fatal("matrix market: '", mtx_path, "' row ", r + 1,
                  " has too many entries to convert");
        counts[r + 1] += counts[r];
    }
    const std::uint64_t upper = counts[rows];
    stats.stored = upper;

    // Pass 2: scatter every entry into an mmapped scratch file at its
    // row's cursor, tagging it with its arrival order. The scratch is
    // backed by disk and paged by the OS — it is not resident memory.
    t0 = Clock::now();
    const std::string scratch_path = out_path + ".scratch";
    MappedFile scratch;
    ColVal *slots = nullptr;
    if (upper > 0) {
        scratch =
            MappedFile::createReadWrite(scratch_path, upper * sizeof(ColVal));
        slots = reinterpret_cast<ColVal *>(scratch.mutableData());
    }
    stats.scratch_file_bytes = upper * sizeof(ColVal);
    std::vector<std::uint64_t> cursor(counts);
    streamEntries(mtx_path, data_offset, header, opts, acct,
                  [&](std::span<const mmscan::Entry> es) -> std::string {
                      for (const mmscan::Entry &e : es) {
                          const std::uint64_t pos = cursor[e.row];
                          if (pos >= counts[e.row + 1]) {
                              return "matrix market: '" + mtx_path +
                                     "' changed between conversion passes";
                          }
                          cursor[e.row] = pos + 1;
                          slots[pos] = {
                              static_cast<std::uint32_t>(e.col),
                              static_cast<std::uint32_t>(pos - counts[e.row]),
                              e.value};
                      }
                      return {};
                  });
    stats.scatter_seconds = secondsSince(t0);

    // Merge pass: per row, order by (col, arrival), sum duplicates in
    // arrival order and drop exact-zero results — precisely what
    // CooMatrix::canonicalize does, so the output is bit-identical to
    // the in-memory reader's. Compacted rows stay at counts[r].
    t0 = Clock::now();
    std::vector<std::uint64_t> final_rp(rows + 1, 0);
    for (std::uint64_t r = 0; r < rows; ++r) {
        ColVal *begin = slots + counts[r];
        ColVal *end = slots + cursor[r];
        std::sort(begin, end, [](const ColVal &a, const ColVal &b) {
            return a.col != b.col ? a.col < b.col : a.seq < b.seq;
        });
        std::uint64_t w = 0;
        for (ColVal *p = begin; p != end; ++p) {
            if (w > 0 && begin[w - 1].col == p->col)
                begin[w - 1].val += p->val;
            else
                begin[w++] = *p;
        }
        std::uint64_t k = 0;
        for (std::uint64_t j = 0; j < w; ++j) {
            if (begin[j].val != 0.0)
                begin[k++] = begin[j];
        }
        final_rp[r + 1] = k;
    }
    for (std::uint64_t r = 0; r < rows; ++r)
        final_rp[r + 1] += final_rp[r];
    const std::uint64_t nnz = final_rp[rows];
    stats.nnz = nnz;
    stats.merge_seconds = secondsSince(t0);

    // Stream the sections out; the header is sealed last.
    t0 = Clock::now();
    ScsrWriter writer(out_path, rows, header.cols, nnz);
    writer.appendRowPtr(final_rp);
    constexpr std::size_t kFlush = 1 << 16;
    {
        std::vector<Index> buf;
        buf.reserve(kFlush);
        for (std::uint64_t r = 0; r < rows; ++r) {
            const std::uint64_t k = final_rp[r + 1] - final_rp[r];
            for (std::uint64_t j = 0; j < k; ++j) {
                buf.push_back(static_cast<Index>(slots[counts[r] + j].col));
                if (buf.size() == kFlush) {
                    writer.appendColIdx(buf);
                    buf.clear();
                }
            }
        }
        writer.appendColIdx(buf);
    }
    {
        std::vector<Value> buf;
        buf.reserve(kFlush);
        for (std::uint64_t r = 0; r < rows; ++r) {
            const std::uint64_t k = final_rp[r + 1] - final_rp[r];
            for (std::uint64_t j = 0; j < k; ++j) {
                buf.push_back(slots[counts[r] + j].val);
                if (buf.size() == kFlush) {
                    writer.appendValues(buf);
                    buf.clear();
                }
            }
        }
        writer.appendValues(buf);
    }
    const ScsrHeader h = writer.finish();
    stats.write_seconds = secondsSince(t0);
    stats.bytes_out = h.file_bytes;

    scratch.reset();
    if (upper > 0)
        std::filesystem::remove(scratch_path);

    stats.chunks = acct.chunks;
    stats.pool_bytes = acct.pool_bytes +
                       2 * kFlush * sizeof(Value); // section flush buffers
    stats.table_bytes =
        (counts.capacity() + cursor.capacity() + final_rp.capacity()) *
        sizeof(std::uint64_t);
    return stats;
}

} // namespace sparch
