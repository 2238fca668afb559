/**
 * @file
 * Tests for the per-run Arena: bump/pool allocation semantics,
 * reset-and-reuse convergence, and the simulator's steady-state
 * zero-heap-allocation contract.
 *
 * This binary overrides global operator new/delete to bump
 * allochook::counter() on every heap allocation — that is what arms
 * the simulator's in-loop allocation check (SPARCH_DCHECK builds) and
 * lets the tests here measure heap traffic directly.
 */

#include <cstdint>
#include <cstdlib>
#include <new>

#include <gtest/gtest.h>

#include "common/alloc_hook.hh"
#include "common/arena.hh"
#include "common/logging.hh"
#include "common/zeroed_table.hh"
#include "core/sparch_simulator.hh"
#include "matrix/generators.hh"

// GCC pairs these replaced deallocation functions against the default
// operator new when checking new/delete matching; the replacement
// new below also uses malloc, so free() is the right counterpart.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void *
operator new(std::size_t size)
{
    sparch::allochook::counter().fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
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
    sparch::allochook::counter().fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return ::operator new(size, tag);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
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

TEST(Arena, BumpAllocationsAreAlignedAndDistinct)
{
    Arena arena;
    void *a = arena.allocate(1);
    void *b = arena.allocate(24);
    void *c = arena.allocate(0);
    EXPECT_NE(a, b);
    EXPECT_NE(b, c);
    for (void *p : {a, b, c})
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % 16, 0u);
    // 1 and 0 bytes round up to one 16-byte slot, 24 to two.
    EXPECT_EQ(arena.bytesInUse(), 64u);
}

TEST(Arena, AllocArrayValueInitializes)
{
    Arena arena;
    int *v = arena.allocArray<int>(100);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(v[i], 0);
}

TEST(Arena, ResetKeepsCapacityAndStaysFlat)
{
    Arena arena;
    arena.allocate(1000);
    const auto chunks = arena.chunkAllocations();
    EXPECT_GE(chunks, 1u);
    for (int round = 0; round < 10; ++round) {
        arena.reset();
        EXPECT_EQ(arena.bytesInUse(), 0u);
        arena.allocate(1000);
        EXPECT_EQ(arena.chunkAllocations(), chunks)
            << "reset-reuse must not touch the heap (round " << round
            << ")";
    }
}

TEST(Arena, MultiChunkSpillConvergesToOneChunkAfterReset)
{
    Arena arena;
    // Force a spill past the first chunk...
    for (int i = 0; i < 8; ++i)
        arena.allocate(48 * 1024);
    const auto spilled = arena.chunkAllocations();
    EXPECT_GE(spilled, 2u);
    // ...then the merged chunk covers the whole working set: one more
    // chunk malloc ever, no matter how many further rounds run.
    arena.reset();
    for (int round = 0; round < 5; ++round) {
        for (int i = 0; i < 8; ++i)
            arena.allocate(48 * 1024);
        EXPECT_EQ(arena.chunkAllocations(), spilled + 1);
        arena.reset();
    }
}

TEST(Arena, PoolRecyclesFreedBlocks)
{
    Arena arena;
    void *a = arena.poolAlloc(64);
    arena.poolFree(a, 64);
    // Same size class comes straight off the free list.
    EXPECT_EQ(arena.poolAlloc(64), a);
    // A different size class does not.
    void *b = arena.poolAlloc(128);
    EXPECT_NE(b, a);
    arena.poolFree(b, 128);
    const auto used = arena.bytesInUse();
    // Churning a recycled class is heap- and bump-neutral.
    for (int i = 0; i < 1000; ++i) {
        void *p = arena.poolAlloc(128);
        arena.poolFree(p, 128);
    }
    EXPECT_EQ(arena.bytesInUse(), used);
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
 * The heart of the tentpole contract: repeated multiplies on one
 * thread reuse the per-run arena (chunk count flat after warmup) and
 * stay bit-identical — reset-and-reuse must not leak any state from
 * one run into the next.
 */
TEST(Arena, RepeatedMultipliesAreBitIdenticalAndArenaStaysFlat)
{
    const CsrMatrix a = generateUniform(300, 300, 2400, 1);
    const SpArchSimulator sim;

    const SpArchResult first = sim.multiply(a, a);
    // The warmup may have spilled across several chunks; the next
    // reset merges them, so the second run grabs the one converged
    // chunk. From then on the count must stay flat.
    const SpArchResult second = sim.multiply(a, a);
    EXPECT_EQ(second.cycles, first.cycles);
    const auto chunks = runArenaChunkAllocations();
    for (int run = 0; run < 3; ++run) {
        const SpArchResult again = sim.multiply(a, a);
        EXPECT_EQ(again.cycles, first.cycles) << "run " << run;
        EXPECT_TRUE(again.result == first.result) << "run " << run;
        EXPECT_EQ(again.stats.all(), first.stats.all())
            << "run " << run;
        EXPECT_EQ(runArenaChunkAllocations(), chunks)
            << "arena grew on warmed-up run " << run;
    }
}

/**
 * Steady-state zero-allocation contract: after a warmup multiply, the
 * cycle loop of every subsequent round performs zero heap
 * allocations. The simulator itself enforces this (panic) when strict
 * mode is armed — but only in SPARCH_DCHECK builds, where the
 * snapshot checks are compiled in.
 */
TEST(Arena, SteadyStateCycleLoopIsHeapAllocationFree)
{
#if !SPARCH_DCHECK_IS_ON
    GTEST_SKIP() << "in-loop allocation snapshots need SPARCH_DCHECK";
#else
    const CsrMatrix a = generateUniform(300, 300, 2400, 7);
    const SpArchSimulator sim;
    const SpArchResult warm = sim.multiply(a, a);

    // Both product modes: the count-only final round captures nothing.
    allochook::setStrict(true);
    SpArchResult strict_run, strict_count;
    EXPECT_NO_THROW(strict_run = sim.multiply(a, a));
    EXPECT_NO_THROW(strict_count = sim.multiply(a, a, ProductMode::Count));
    allochook::setStrict(false);
    EXPECT_EQ(strict_run.cycles, warm.cycles);
    EXPECT_EQ(strict_count.cycles, warm.cycles);
    EXPECT_EQ(strict_count.resultNnz, warm.result.nnz());
#endif
}

} // namespace
} // namespace sparch
