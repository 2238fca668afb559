/**
 * @file
 * Direct unit tests for the MatB row prefetcher: readiness, hit/miss
 * accounting on crafted traces, and the replacement-policy ablation
 * (Belady must beat LRU on adversarial cyclic reuse — the essence of
 * the paper's "near-optimal replacement" claim), and a differential
 * test of the eviction ranking against an ordered-set model.
 */

#include <map>
#include <optional>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "core/eviction_rank.hh"
#include "core/row_prefetcher.hh"
#include "matrix/generators.hh"
#include "mem/hbm_backend.hh"

namespace sparch
{
namespace
{

/** A right matrix whose rows each occupy exactly one buffer line. */
CsrMatrix
rowsMatrix(Index rows, Index elems_per_row)
{
    CooMatrix coo(rows, 64);
    for (Index r = 0; r < rows; ++r) {
        for (Index e = 0; e < elems_per_row; ++e)
            coo.add(r, e, 1.0 + r);
    }
    coo.canonicalize();
    return CsrMatrix::fromCoo(coo);
}

/** Build a task stream visiting the given rows in order. */
std::vector<MultTask>
trace(std::initializer_list<Index> rows)
{
    std::vector<MultTask> tasks;
    for (Index r : rows) {
        const auto i = static_cast<std::uint32_t>(tasks.size());
        tasks.push_back({i, r, i});
    }
    return tasks;
}

/**
 * Clock a round of `n` stream entries started at cycle `start`,
 * consuming them in order as soon as each head row is ready; returns
 * the cycles taken.
 */
int
drainRound(RowPrefetcher &p, std::size_t n, Cycle start = 0)
{
    std::uint64_t consumed = 0;
    int cycles = 0;
    for (; cycles < 1000000 && consumed < n; ++cycles) {
        const Cycle now = start + static_cast<Cycle>(cycles);
        p.clockUpdate(now);
        while (consumed < n && p.rowReady(consumed, now)) {
            p.noteConsumed(consumed);
            ++consumed;
        }
    }
    EXPECT_EQ(consumed, n) << "prefetcher not live";
    return cycles;
}

/** Drive a fresh prefetcher over a trace; returns (hits, misses). */
std::pair<std::uint64_t, std::uint64_t>
runTrace(const SpArchConfig &cfg, const CsrMatrix &b,
         const std::vector<MultTask> &tasks)
{
    mem::HbmBackend hbm(cfg.memory.hbm);
    RowPrefetcher p(cfg, hbm);
    p.startRound(&tasks, &b, 0);
    drainRound(p, tasks.size());
    return {p.hits(), p.misses()};
}

SpArchConfig
smallConfig(std::size_t lines, ReplacementPolicy policy)
{
    SpArchConfig cfg;
    cfg.prefetchLines = lines;
    cfg.prefetchLineElems = 8; // one line per 8-element row
    cfg.replacement = policy;
    return cfg;
}

TEST(RowPrefetcher, ColdMissesThenHitsOnReuse)
{
    const CsrMatrix b = rowsMatrix(4, 8);
    const auto tasks = trace({0, 1, 0, 1, 0, 1});
    const auto [hits, misses] =
        runTrace(smallConfig(1024, ReplacementPolicy::Belady), b,
                 tasks);
    EXPECT_EQ(misses, 2u); // two cold misses
    EXPECT_EQ(hits, 4u);   // all reuses hit
}

TEST(RowPrefetcher, GrownRowTableMatchesAFreshInstance)
{
    // Round 1 sizes the row table for a 4-row B and round 2's 64-row
    // B grows it. Rows 0..3 carry stale state from round 1 and rows
    // 4..63 are untouched zero-filled slots: both must read as never
    // seen, so round 2 plays out exactly as on a fresh prefetcher.
    const SpArchConfig cfg = smallConfig(4, ReplacementPolicy::Belady);
    const CsrMatrix small = rowsMatrix(4, 8);
    const CsrMatrix large = rowsMatrix(64, 8);
    const auto warm = trace({0, 1, 2, 3, 0, 1});
    const auto tasks = trace({0, 40, 1, 63, 40, 0, 5, 63, 40, 2, 5});

    mem::HbmBackend reused_hbm(cfg.memory.hbm);
    RowPrefetcher reused(cfg, reused_hbm);
    reused.startRound(&warm, &small, 0);
    const int warm_cycles = drainRound(reused, warm.size());
    const std::uint64_t hits0 = reused.hits();
    const std::uint64_t misses0 = reused.misses();
    const std::uint64_t writes0 = reused.bufferWrites();
    reused.startRound(&tasks, &large, 0);
    const int reused_cycles =
        drainRound(reused, tasks.size(), static_cast<Cycle>(warm_cycles));

    mem::HbmBackend fresh_hbm(cfg.memory.hbm);
    RowPrefetcher fresh(cfg, fresh_hbm);
    fresh.startRound(&tasks, &large, 0);
    const int fresh_cycles = drainRound(fresh, tasks.size());

    EXPECT_EQ(reused.hits() - hits0, fresh.hits());
    EXPECT_EQ(reused.misses() - misses0, fresh.misses());
    EXPECT_EQ(reused.bufferWrites() - writes0, fresh.bufferWrites());
    EXPECT_EQ(reused_cycles, fresh_cycles);
    // Each of the six distinct rows starts with a cold miss.
    EXPECT_GE(fresh.misses(), 6u);
    EXPECT_GT(fresh.hits(), 0u);
}

TEST(RowPrefetcher, EmptyRowsAreAlwaysReady)
{
    CsrMatrix b(8, 8); // all rows empty
    const auto tasks = trace({0, 3, 7});
    const auto [hits, misses] =
        runTrace(smallConfig(1024, ReplacementPolicy::Belady), b,
                 tasks);
    EXPECT_EQ(hits + misses, 0u);
}

TEST(RowPrefetcher, BeladyBeatsLruOnCyclicReuse)
{
    // The classic adversarial case: cyclic sweep over one more row
    // than the buffer holds. LRU always evicts the row needed next;
    // Belady keeps part of the working set resident.
    const CsrMatrix b = rowsMatrix(3, 8);
    const auto tasks = trace(
        {0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2});

    const auto [hits_belady, misses_belady] =
        runTrace(smallConfig(2, ReplacementPolicy::Belady), b, tasks);
    const auto [hits_lru, misses_lru] =
        runTrace(smallConfig(2, ReplacementPolicy::Lru), b, tasks);

    EXPECT_GT(hits_belady, hits_lru);
    EXPECT_LT(misses_belady, misses_lru);
    // LRU on a cyclic sweep with capacity 2 of 3 misses everything.
    EXPECT_EQ(hits_lru, 0u);
}

TEST(RowPrefetcher, FifoEvictsInsertionOrder)
{
    const CsrMatrix b = rowsMatrix(3, 8);
    // 0 and 1 resident; touching 0 repeatedly does not save it under
    // FIFO when 2 arrives, but does under LRU.
    const auto tasks = trace({0, 1, 0, 0, 2, 0});

    const auto [hits_fifo, misses_fifo] =
        runTrace(smallConfig(2, ReplacementPolicy::Fifo), b, tasks);
    const auto [hits_lru, misses_lru] =
        runTrace(smallConfig(2, ReplacementPolicy::Lru), b, tasks);
    EXPECT_GE(hits_lru, hits_fifo);
    // (Total lookups can differ slightly: demand refetches of
    // evicted-before-use lines depend on the policy.)
    EXPECT_GT(hits_fifo + misses_fifo, 0u);
}

TEST(RowPrefetcher, MultiLineRowsRefetchOnlyMissingLines)
{
    // Rows of 3 lines; buffer of 4 lines: visiting A then B partially
    // spills A, and revisiting A fetches only the spilled lines.
    const CsrMatrix b = rowsMatrix(2, 24); // 3 lines x 8 elems
    const auto tasks = trace({0, 1, 0});
    const auto [hits, misses] =
        runTrace(smallConfig(4, ReplacementPolicy::Belady), b, tasks);
    // Cold: 3 + 3 lines; the revisit of row 0 hits its surviving
    // lines and refetches only the spilled ones (demand refetches of
    // lines evicted before use can add a few extra misses).
    EXPECT_GE(hits + misses, 9u);
    EXPECT_GT(hits, 0u);
}

TEST(RowPrefetcher, BypassModeStreamsEveryUse)
{
    const CsrMatrix b = rowsMatrix(2, 8);
    const auto tasks = trace({0, 0, 1, 1});
    SpArchConfig cfg = smallConfig(1024, ReplacementPolicy::Belady);
    cfg.rowPrefetcher = false;

    mem::HbmBackend hbm(cfg.memory.hbm);
    RowPrefetcher p(cfg, hbm);
    p.startRound(&tasks, &b, 0);
    std::uint64_t consumed = 0;
    for (Cycle now = 0; now < 100000 && consumed < tasks.size();
         ++now) {
        p.clockUpdate(now);
        while (consumed < tasks.size() && p.rowReady(consumed, now)) {
            p.noteConsumed(consumed);
            ++consumed;
        }
    }
    ASSERT_EQ(consumed, tasks.size());
    // No reuse without the buffer: four full-row reads.
    EXPECT_EQ(hbm.streamBytes(DramStream::MatB),
              4u * 8u * bytesPerElement);
    EXPECT_DOUBLE_EQ(p.hitRate(), 0.0);
}

// The multiplier latches a true rowReady() and its DCHECKs re-derive
// it with peekRowReady(); the pure query must predict every poll,
// including demand fetches that evict under a thrashing buffer,
// streamed oversized rows, empty rows and bypass mode.
TEST(RowPrefetcher, PeekRowReadyPredictsEveryPoll)
{
    CooMatrix coo(6, 64);
    for (Index r = 0; r < 5; ++r) {
        const Index len = r == 4 ? 40 : 12; // row 4 spans 5 lines
        for (Index e = 0; e < len; ++e)
            coo.add(r, e, 1.0);
    }
    coo.canonicalize();
    const CsrMatrix b = CsrMatrix::fromCoo(coo); // row 5 is empty
    const auto tasks =
        trace({0, 1, 2, 3, 0, 5, 4, 1, 2, 3, 4, 0, 5, 2, 1, 3});
    for (const bool prefetcher : {true, false}) {
        SpArchConfig cfg = smallConfig(4, ReplacementPolicy::Belady);
        cfg.rowPrefetcher = prefetcher;
        mem::HbmBackend hbm(cfg.memory.hbm);
        RowPrefetcher p(cfg, hbm);
        p.startRound(&tasks, &b, 0);
        std::uint64_t consumed = 0;
        for (Cycle now = 0; now < 100000 && consumed < tasks.size();
             ++now) {
            p.clockUpdate(now);
            // Poll a few heads ahead, as independent ports would.
            const std::uint64_t end =
                std::min<std::uint64_t>(consumed + 3, tasks.size());
            for (std::uint64_t pos = consumed; pos < end; ++pos) {
                const bool peeked = p.peekRowReady(pos, now);
                ASSERT_EQ(peeked, p.rowReady(pos, now))
                    << "pos " << pos << " cycle " << now;
            }
            while (consumed < tasks.size() &&
                   p.peekRowReady(consumed, now) &&
                   p.rowReady(consumed, now)) {
                p.noteConsumed(consumed);
                ++consumed;
            }
        }
        ASSERT_EQ(consumed, tasks.size());
        if (prefetcher) {
            EXPECT_GT(p.evictions(), 0u);
        }
    }
}

// The multiplier parks a port after a false poll until pendingUntil()
// and counts each skipped poll as a stall. So every poll before the
// wake cycle must return false and fetch nothing, and the poll at it
// must succeed, unless a line was evicted in between.
TEST(RowPrefetcher, PendingUntilPredictsPurePolls)
{
    CooMatrix coo(6, 64);
    for (Index r = 0; r < 5; ++r) {
        const Index len = r == 4 ? 40 : 12; // row 4 spans 5 lines
        for (Index e = 0; e < len; ++e)
            coo.add(r, e, 1.0);
    }
    coo.canonicalize();
    const CsrMatrix b = CsrMatrix::fromCoo(coo); // row 5 is empty
    const auto tasks =
        trace({0, 1, 2, 3, 0, 5, 4, 1, 2, 3, 4, 0, 5, 2, 1, 3});
    for (const std::size_t lines : {4u, 8u, 16u}) {
        for (const bool prefetcher : {true, false}) {
            SpArchConfig cfg =
                smallConfig(lines, ReplacementPolicy::Belady);
            cfg.rowPrefetcher = prefetcher;
            mem::HbmBackend hbm(cfg.memory.hbm);
            RowPrefetcher p(cfg, hbm);
            p.startRound(&tasks, &b, 0);
            // Per position: the pending wake cycle (0 = none) and the
            // eviction count it was taken under.
            std::vector<Cycle> wake(tasks.size(), 0);
            std::vector<std::uint64_t> taken(tasks.size(), 0);
            unsigned pure = 0, woke = 0;
            std::uint64_t consumed = 0;
            for (Cycle now = 0; now < 100000 && consumed < tasks.size();
                 ++now) {
                p.clockUpdate(now);
                const std::uint64_t end =
                    std::min<std::uint64_t>(consumed + 3, tasks.size());
                for (std::uint64_t pos = consumed; pos < end; ++pos) {
                    const bool parked =
                        wake[pos] != 0 && taken[pos] == p.evictions();
                    const std::uint64_t misses = p.misses();
                    const std::uint64_t writes = p.bufferWrites();
                    const std::uint64_t evictions = p.evictions();
                    const bool ready = p.rowReady(pos, now);
                    if (parked && now < wake[pos]) {
                        ASSERT_FALSE(ready) << "pos " << pos;
                        ASSERT_EQ(p.misses(), misses) << "pos " << pos;
                        ASSERT_EQ(p.bufferWrites(), writes)
                            << "pos " << pos;
                        ASSERT_EQ(p.evictions(), evictions)
                            << "pos " << pos;
                        ++pure;
                    } else if (parked) {
                        ASSERT_TRUE(ready) << "pos " << pos;
                        ++woke;
                    }
                    wake[pos] = ready ? 0 : p.pendingUntil(pos, now);
                    taken[pos] = p.evictions();
                    if (!prefetcher) {
                        ASSERT_EQ(wake[pos], 0u);
                    } else if (wake[pos] != 0) {
                        ASSERT_GT(wake[pos], now);
                    }
                }
                while (consumed < tasks.size() &&
                       p.rowReady(consumed, now)) {
                    p.noteConsumed(consumed);
                    ++consumed;
                }
            }
            ASSERT_EQ(consumed, tasks.size())
                << lines << " lines, prefetcher " << prefetcher;
            if (prefetcher) {
                EXPECT_GT(pure, 0u) << lines << " lines";
                EXPECT_GT(woke, 0u) << lines << " lines";
            }
        }
    }
}

TEST(RowPrefetcher, HitRateReportedOverLifetime)
{
    const CsrMatrix b = rowsMatrix(2, 8);
    const auto tasks = trace({0, 1, 0, 1});
    SpArchConfig cfg = smallConfig(1024, ReplacementPolicy::Belady);
    mem::HbmBackend hbm(cfg.memory.hbm);
    RowPrefetcher p(cfg, hbm);
    p.startRound(&tasks, &b, 0);
    std::uint64_t consumed = 0;
    for (Cycle now = 0; now < 100000 && consumed < tasks.size();
         ++now) {
        p.clockUpdate(now);
        while (consumed < tasks.size() && p.rowReady(consumed, now)) {
            p.noteConsumed(consumed);
            ++consumed;
        }
    }
    EXPECT_DOUBLE_EQ(p.hitRate(), 0.5);
    StatSet stats;
    p.recordStats(stats);
    // The stats hold the counts; a reader derives the ratio.
    EXPECT_DOUBLE_EQ(stats.get("row_prefetcher.hits"), 2.0);
    EXPECT_DOUBLE_EQ(stats.get("row_prefetcher.misses"), 2.0);
    EXPECT_FALSE(stats.has("row_prefetcher.hit_rate"));
}

// Belady's next use of a row is its earliest unretired position inside
// the look-ahead window. Column fetchers retire out of order, within a
// row too, and can retire a position before the window reaches it; a
// second round on the same prefetcher must see only its own stream.
TEST(RowPrefetcher, NextUseIsEarliestUnretiredUseInsideTheWindow)
{
    constexpr std::uint64_t kInf = RowPrefetcher::kInfinite;
    const CsrMatrix b = rowsMatrix(4, 8);
    SpArchConfig cfg = smallConfig(1024, ReplacementPolicy::Belady);
    cfg.lookaheadFifo = 4; // window end: watermark + 4
    mem::HbmBackend hbm(cfg.memory.hbm);
    RowPrefetcher p(cfg, hbm);
    const auto uses = [&p](std::initializer_list<Index> rows) {
        std::vector<std::uint64_t> next;
        for (Index r : rows)
            next.push_back(p.nextUse(r));
        return next;
    };
    using Uses = std::vector<std::uint64_t>;

    //                   pos: 0  1  2  3  4  5  6  7
    const auto round1 = trace({0, 1, 0, 2, 0, 1, 0, 3});
    p.startRound(&round1, &b, 0);
    EXPECT_EQ(uses({0, 1, 2, 3}), (Uses{kInf, kInf, kInf, kInf}));
    p.clockUpdate(0); // window [0, 4)
    EXPECT_EQ(uses({0, 1, 2, 3}), (Uses{0, 1, 3, kInf}));
    p.noteConsumed(2); // a later use of row 0 retires first
    EXPECT_EQ(p.nextUse(0), 0u);
    p.noteConsumed(0); // skips retired 2; 4 is outside the window
    EXPECT_EQ(p.nextUse(0), kInf);
    p.clockUpdate(1); // watermark 1: window [0, 5)
    EXPECT_EQ(p.nextUse(0), 4u);
    p.noteConsumed(6); // retired before the window reaches it
    p.noteConsumed(1); // row 1 moves to 5, outside the window
    EXPECT_EQ(uses({0, 1}), (Uses{4, kInf}));
    p.clockUpdate(2); // watermark 3: window [0, 7)
    EXPECT_EQ(uses({0, 1, 2, 3}), (Uses{4, 5, 3, kInf}));
    p.noteConsumed(4); // skips retired 6: row 0 has no use left
    p.noteConsumed(3);
    EXPECT_EQ(uses({0, 1, 2, 3}), (Uses{kInf, 5, kInf, kInf}));
    p.clockUpdate(3); // watermark 5: window [0, 8)
    EXPECT_EQ(uses({0, 1, 2, 3}), (Uses{kInf, 5, kInf, 7}));

    //                   pos: 0  1  2  3  4  5  6  7
    const auto round2 = trace({3, 3, 2, 0, 1, 3, 0, 2});
    p.startRound(&round2, &b, 0);
    p.clockUpdate(4); // window [0, 4)
    EXPECT_EQ(uses({0, 1, 2, 3}), (Uses{3, kInf, 2, 0}));
    p.noteConsumed(0);
    EXPECT_EQ(p.nextUse(3), 1u);
    p.noteConsumed(1);
    p.clockUpdate(5); // watermark 2: window [0, 6)
    EXPECT_EQ(uses({0, 1, 2, 3}), (Uses{3, 4, 2, 5}));
}

/**
 * Reference eviction ranking: an ordered set of (key, row) pairs,
 * scanned from the largest down with the prefetcher's victim rules.
 */
class SetRank
{
  public:
    void
    rank(Index row, std::uint64_t key)
    {
        unrank(row);
        set_.insert({key, row});
        key_[row] = key;
    }

    void
    unrank(Index row)
    {
        const auto it = key_.find(row);
        if (it != key_.end()) {
            set_.erase({it->second, row});
            key_.erase(it);
        }
    }

    template <typename Demanded>
    SIndex
    victim(SIndex pinned, Demanded demanded,
           std::optional<std::uint64_t> floor, bool &fell_back) const
    {
        const auto below = [&](std::uint64_t key) {
            return floor && key <= *floor;
        };
        auto it = set_.rbegin();
        while (it != set_.rend() &&
               (static_cast<SIndex>(it->second) == pinned ||
                demanded(it->second))) {
            ++it;
        }
        fell_back = false;
        if (it == set_.rend() || below(it->first)) {
            fell_back = true;
            it = set_.rbegin();
            while (it != set_.rend() &&
                   (static_cast<SIndex>(it->second) == pinned ||
                    below(it->first))) {
                ++it;
            }
            if (it == set_.rend())
                return -1;
        }
        return static_cast<SIndex>(it->second);
    }

  private:
    std::set<std::pair<std::uint64_t, Index>> set_;
    std::map<Index, std::uint64_t> key_;
};

/**
 * A small line buffer under each replacement policy, driven by a
 * random row stream: each stream entry pins its row and fills its
 * missing lines, evicting one line per victim, then re-keys the row.
 * Random rows are demanded (a port head waits on them) and a random
 * protection floor makes Belady refuse near uses, so both the
 * fallback to demanded rows and the no-victim stall occur. Every
 * victim must equal the ordered-set model's.
 */
TEST(EvictionRank, VictimsMatchAnOrderedSetModel)
{
    constexpr Index kRows = 48;
    constexpr std::size_t kStream = 4000;
    constexpr std::uint64_t kInfinite = RowPrefetcher::kInfinite;
    for (const ReplacementPolicy policy :
         {ReplacementPolicy::Belady, ReplacementPolicy::Lru,
          ReplacementPolicy::Fifo}) {
        for (const std::size_t capacity : {6u, 12u, 24u}) {
            SCOPED_TRACE(std::string(replacementPolicyName(policy)) +
                         ", " + std::to_string(capacity) + " lines");
            Rng rng(capacity * 31 + static_cast<unsigned>(policy));
            // Skewed reuse: a hot third of the rows takes most uses.
            std::vector<Index> stream(kStream);
            for (Index &r : stream) {
                r = static_cast<Index>(rng.nextBounded(4) == 0
                                           ? rng.nextBounded(kRows)
                                           : rng.nextBounded(kRows / 3));
            }
            std::vector<Index> lines(kRows);
            for (Index &l : lines)
                l = static_cast<Index>(1 + rng.nextBounded(3));

            std::vector<EvictionRank::Slot> slots(kRows);
            const auto slot_of = [&](Index r) -> EvictionRank::Slot & {
                return slots[r];
            };
            EvictionRank rank;
            rank.reset(capacity);
            SetRank model;
            std::vector<Index> prefix(kRows, 0);
            std::vector<std::uint64_t> last_touch(kRows, 0);
            std::vector<std::uint64_t> insert_tick(kRows, 0);
            std::vector<bool> demanded(kRows, false);
            std::size_t resident = 0;
            std::uint64_t tick = 0;
            std::uint64_t evictions = 0, fallbacks = 0, refusals = 0;

            const auto nextUse = [&](Index row, std::size_t after) {
                for (std::size_t i = after + 1;
                     i < std::min(kStream, after + 64); ++i) {
                    if (stream[i] == row)
                        return static_cast<std::uint64_t>(i);
                }
                return kInfinite;
            };
            const auto rekey = [&](Index row, std::size_t pos) {
                if (prefix[row] == 0) {
                    EvictionRank::unrank(slots[row]);
                    model.unrank(row);
                    return;
                }
                std::uint64_t key = 0;
                switch (policy) {
                  case ReplacementPolicy::Belady:
                    key = nextUse(row, pos);
                    break;
                  case ReplacementPolicy::Lru:
                    key = kInfinite - last_touch[row];
                    break;
                  default:
                    key = kInfinite - insert_tick[row];
                    break;
                }
                rank.rank(row, slots[row], key, slot_of);
                model.rank(row, key);
            };

            for (std::size_t pos = 0; pos < kStream; ++pos) {
                // Port heads come and go.
                demanded[rng.nextBounded(kRows)] =
                    rng.nextBounded(2) == 0;
                const Index row = stream[pos];
                const bool belady = policy == ReplacementPolicy::Belady;
                const std::optional<std::uint64_t> floor =
                    belady ? std::optional<std::uint64_t>(
                                 pos + rng.nextBounded(24))
                           : std::nullopt;
                if (prefix[row] == 0)
                    insert_tick[row] = ++tick;
                last_touch[row] = ++tick;
                while (prefix[row] < lines[row]) {
                    bool stalled = false;
                    while (resident >= capacity) {
                        const auto is_demanded = [&](Index r) {
                            return static_cast<bool>(demanded[r]);
                        };
                        bool fell_back = false;
                        const SIndex want = model.victim(
                            row, is_demanded, floor, fell_back);
                        const SIndex got =
                            rank.victim(slot_of, row, is_demanded, floor);
                        ASSERT_EQ(got, want) << "stream entry " << pos;
                        if (got < 0) {
                            ++refusals;
                            stalled = true;
                            break;
                        }
                        fallbacks += fell_back ? 1 : 0;
                        ++evictions;
                        const auto victim = static_cast<Index>(got);
                        --prefix[victim];
                        --resident;
                        if (prefix[victim] == 0) {
                            insert_tick[victim] = 0;
                            rekey(victim, pos);
                        }
                    }
                    if (stalled)
                        break;
                    ++prefix[row];
                    ++resident;
                }
                rekey(row, pos);
            }
            EXPECT_GT(evictions, 1000u);
            EXPECT_GT(fallbacks, 0u);
            // Belady's floor leaves the small buffers without a victim.
            if (policy == ReplacementPolicy::Belady && capacity <= 12) {
                EXPECT_GT(refusals, 0u);
            }
        }
    }
}

} // namespace
} // namespace sparch
