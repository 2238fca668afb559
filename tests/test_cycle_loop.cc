/**
 * @file
 * The simulator's zero-heap-allocation contract for the cycle loop,
 * the heap high-water mark of a multiply, the bit identity of
 * repeated multiplies, and the ZeroedTable that backs the prefetcher's
 * per-row state.
 *
 * This binary overrides global operator new/delete to bump
 * allochook::counter() on every heap allocation — that is what arms
 * the simulator's in-loop allocation check (SPARCH_DCHECK builds) and
 * lets the tests here measure heap traffic directly. The overrides
 * also keep the live and peak bytes of the blocks they hand out
 * (malloc_usable_size), which calloc'ed ZeroedTable storage bypasses.
 */

#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "common/alloc_hook.hh"
#include "common/logging.hh"
#include "common/zeroed_table.hh"
#include "core/sparch_simulator.hh"
#include "matrix/generators.hh"

// GCC pairs these replaced deallocation functions against the default
// operator new when checking new/delete matching; the replacement
// new below also uses malloc, so free() is the right counterpart.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace
{

/** Bytes of the blocks operator new handed out and not yet freed. */
std::atomic<std::int64_t> g_live_bytes{0};
/** The most g_live_bytes has been since the last resetHeapPeak(). */
std::atomic<std::int64_t> g_peak_bytes{0};

/** Count one allocation of block `p` (may be null). */
void *
noteAlloc(void *p)
{
    sparch::allochook::counter().fetch_add(1, std::memory_order_relaxed);
    if (p == nullptr)
        return p;
    const auto bytes = static_cast<std::int64_t>(malloc_usable_size(p));
    const std::int64_t live =
        g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::int64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak_bytes.compare_exchange_weak(peak, live,
                                               std::memory_order_relaxed))
        ;
    return p;
}

/** Free block `p` (may be null). */
void
freeBlock(void *p) noexcept
{
    if (p != nullptr) {
        g_live_bytes.fetch_sub(
            static_cast<std::int64_t>(malloc_usable_size(p)),
            std::memory_order_relaxed);
    }
    std::free(p);
}

} // namespace

void *
operator new(std::size_t size)
{
    if (void *p = noteAlloc(std::malloc(size)))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

// The nothrow forms (std::stable_sort's temporary buffer) must come
// from malloc too: the deletes below free() everything.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    return noteAlloc(std::malloc(size));
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    freeBlock(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    freeBlock(p);
}

void
operator delete(void *p) noexcept
{
    freeBlock(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    freeBlock(p);
}

void
operator delete[](void *p) noexcept
{
    freeBlock(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    freeBlock(p);
}

#pragma GCC diagnostic pop

namespace sparch
{
namespace
{

std::uint64_t
heapAllocations()
{
    return allochook::counter().load(std::memory_order_relaxed);
}

/** Restart the peak at the live bytes; returns them. */
std::int64_t
resetHeapPeak()
{
    const std::int64_t live = g_live_bytes.load(std::memory_order_relaxed);
    g_peak_bytes.store(live, std::memory_order_relaxed);
    return live;
}

TEST(ZeroedTable, GrowthKeepsSlotsAndZeroFillsTheTail)
{
    struct Slot
    {
        std::uint32_t epoch = 0;
        std::uint64_t value = 0;
        int *ptr = nullptr;
    };
    ZeroedTable<Slot> table;
    EXPECT_EQ(table.size(), 0u);
    const auto allocs_before = heapAllocations();
    table.grow(4);
    table[1].epoch = 7;
    table[1].value = 42;
    table.grow(2); // not larger: a no-op
    table.grow(1 << 16);
    EXPECT_EQ(table.size(), std::size_t{1} << 16);
    // Both growths count as heap allocations, so the simulator's
    // in-loop check sees them although calloc bypasses operator new.
    EXPECT_GE(heapAllocations() - allocs_before, 2u);
    EXPECT_EQ(table[1].epoch, 7u);
    EXPECT_EQ(table[1].value, 42u);
    for (std::size_t i : {std::size_t{0}, std::size_t{2}, std::size_t{3},
                          std::size_t{4}, std::size_t{65535}}) {
        EXPECT_EQ(table[i].epoch, 0u) << i;
        EXPECT_EQ(table[i].value, 0u) << i;
        EXPECT_EQ(table[i].ptr, nullptr) << i;
    }
    table.zero();
    EXPECT_EQ(table[1].epoch, 0u);
    EXPECT_EQ(table[1].value, 0u);
}

/**
 * Repeated multiplies on one thread stay bit-identical: no state may
 * leak from one run into the next.
 */
TEST(CycleLoop, RepeatedMultipliesAreBitIdentical)
{
    const CsrMatrix a = generateUniform(300, 300, 2400, 1);
    const SpArchSimulator sim;

    const SpArchResult first = sim.multiply(a, a);
    for (int run = 0; run < 3; ++run) {
        const SpArchResult again = sim.multiply(a, a);
        EXPECT_EQ(again.cycles, first.cycles) << "run " << run;
        EXPECT_TRUE(again.result == first.result) << "run " << run;
        EXPECT_EQ(again.stats.all(), first.stats.all())
            << "run " << run;
    }
}

/**
 * The round state a multiply keeps on the heap per left nonzero: one
 * 12-byte stream entry, its 4-byte position in a port queue and its
 * 4-byte link in the prefetcher's next-use chain, plus the line slots
 * and bit vectors of the round. Copying each element's value, port
 * and address into the stream, 64-bit queue positions and a
 * per-nonzero row index in the condensed view add 28 B, past the
 * bound. The operand is a road network: one round of short rows, the
 * shape of each shard of a sharded roadNet-CA multiply.
 */
TEST(CycleLoop, HeapHighWaterPerLeftNonzeroIsBounded)
{
    const CsrMatrix a = generateRoadNetwork(50000, 1);
    const SpArchSimulator sim;
    const std::int64_t before = resetHeapPeak();
    const SpArchResult res = sim.multiply(a, a, ProductMode::Count);
    const double per_nnz =
        static_cast<double>(g_peak_bytes.load() - before) /
        static_cast<double>(a.nnz());
    EXPECT_EQ(res.mergeRounds, 1u);
    EXPECT_GT(res.resultNnz, a.nnz());
    // About 24 B, and 53 B with those copies. The floor guards the
    // measurement: the stream entries and queues alone are 16 B.
    EXPECT_LE(per_nnz, 32.0) << "peak heap bytes per left nonzero";
    EXPECT_GE(per_nnz, 16.0) << "peak heap bytes per left nonzero";
}

/**
 * Zero-allocation contract: the cycle loop of every round performs no
 * heap allocation, from the first multiply of a cold thread on, since
 * every module sizes its storage before the loop starts. The simulator
 * itself enforces this (panic) when strict mode is armed, but only in
 * SPARCH_DCHECK builds, where the snapshot checks are compiled in.
 * Each case runs once in both product modes.
 */
TEST(CycleLoop, IsHeapAllocationFree)
{
#if !SPARCH_DCHECK_IS_ON
    GTEST_SKIP() << "in-loop allocation snapshots need SPARCH_DCHECK";
#else
    const CsrMatrix uniform = generateUniform(300, 300, 2400, 7);
    CooMatrix coo = uniform.toCoo();
    for (Index c = 0; c < 300; ++c) { // rows 7 and 150 made full
        coo.add(7, c, 1.0);
        coo.add(150, c, 1.0);
    }
    coo.canonicalize();
    const CsrMatrix long_rows = CsrMatrix::fromCoo(coo);
    SpArchConfig no_prefetcher; // Fig. 16's first ablation step
    no_prefetcher.rowPrefetcher = false;
    SpArchConfig no_condensing;
    no_condensing.matrixCondensing = false;
    SpArchConfig four_way; // four leaves: a plan of many rounds
    four_way.mergeTree.layers = 2;
    four_way.prefetchLines = 16;
    four_way.prefetchLineElems = 8; // a full row spans 38 lines
    const struct
    {
        const char *name;
        SpArchConfig config;
        const CsrMatrix *b;
    } cases[] = {
        {"default", SpArchConfig{}, &uniform},
        {"prefetcher off", no_prefetcher, &uniform},
        {"condensing off", no_condensing, &uniform},
        {"multi-round", four_way, &uniform},
        {"rows longer than the buffer", four_way, &long_rows},
    };

    allochook::setStrict(true);
    for (const auto &c : cases) {
        SpArchResult runs[2];
        for (const ProductMode mode :
             {ProductMode::Build, ProductMode::Count}) {
            const bool count = mode == ProductMode::Count;
            // A fresh thread: nothing is warmed up for it.
            std::string error;
            std::thread cold([&] {
                try {
                    runs[count] = SpArchSimulator(c.config).multiply(
                        uniform, *c.b, mode);
                } catch (const std::exception &e) {
                    error = e.what();
                }
            });
            cold.join();
            EXPECT_EQ(error, "") << c.name << (count ? ", count" : "");
        }
        EXPECT_GT(runs[0].cycles, 0u) << c.name;
        EXPECT_EQ(runs[1].cycles, runs[0].cycles) << c.name;
        if (c.config.mergeWays() == 4) {
            EXPECT_GT(runs[0].mergeRounds, 1u) << c.name;
        }
    }
    allochook::setStrict(false);
#endif
}

} // namespace
} // namespace sparch
