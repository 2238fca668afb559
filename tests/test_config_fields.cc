/**
 * @file
 * Pins for the field registries (core/config_fields.def,
 * mem/memory_fields.def, driver/record_fields.def).
 *
 * The registries are the single source of truth for the cache-key
 * hasher, the CLI table and the CSV schema; these tests pin the
 * generated artifacts against the pre-registry golden values, so any
 * registry edit that would silently shift a persisted format —
 * reordering entries, changing a TYPE token, flipping a KEY
 * disposition — fails loudly here instead.
 */

#include <string>

#include <gtest/gtest.h>

#include "cli/spec.hh"
#include "core/config_registry.hh"
#include "driver/batch_runner.hh"
#include "driver/result_cache.hh"

namespace sparch
{
namespace
{

using driver::BatchRunner;
using driver::ResultCache;
using driver::ShardPolicy;

// ---------------------------------------------- golden cache keys

TEST(ConfigFieldRegistry, GoldenCacheKeysAreByteStable)
{
    // The same pre-refactor golden values test_result_cache pins:
    // the registry-generated hasher must reproduce the hand-written
    // field walk bit for bit, or every persisted result cache
    // silently misses after an upgrade.
    const SpArchConfig def{};
    EXPECT_EQ(ResultCache::key(def, "w1", 7, 1,
                               ShardPolicy::NnzBalanced),
              0xf85038a81fbd8a92ULL);
    EXPECT_EQ(ResultCache::key(def, "w1", 7, 4,
                               ShardPolicy::RowBalanced),
              0x2733ce329ec94cc9ULL);

    SpArchConfig hbm8 = def;
    hbm8.memory.hbm.channels = 8;
    hbm8.memory.hbm.accessLatency = 100;
    EXPECT_EQ(ResultCache::key(hbm8, "w2", 9, 1,
                               ShardPolicy::NnzBalanced),
              0x4a428ae6a23c91e1ULL);
}

TEST(ConfigFieldRegistry, KeyExemptFieldNeverChangesAnyKey)
{
    // deadlock_cycle_cap is the registry's KEY_EXEMPT demonstration:
    // it bounds how long a round may tick before the simulator
    // declares deadlock, so completed runs are independent of it and
    // it must not feed the key. This holds for every backend kind,
    // not just the default config.
    SpArchConfig base;
    for (const mem::MemoryKind kind :
         {mem::MemoryKind::Hbm, mem::MemoryKind::Ddr4,
          mem::MemoryKind::Lpddr4, mem::MemoryKind::Ideal}) {
        base.memory.kind = kind;
        SpArchConfig capped = base;
        capped.deadlockCycleCap = 123456789;
        EXPECT_EQ(ResultCache::key(base, "w", 1, 1,
                                   ShardPolicy::NnzBalanced),
                  ResultCache::key(capped, "w", 1, 1,
                                   ShardPolicy::NnzBalanced))
            << "deadlock_cycle_cap leaked into the key for kind "
            << mem::memoryKindName(kind);
    }
}

TEST(ConfigFieldRegistry, EveryKeyedFieldActuallyFeedsTheKey)
{
    // Spot-check that KEYED fields still perturb the key after the
    // generated-walk refactor (a broken TYPE macro could silently
    // hash a constant). One representative per TYPE token.
    const SpArchConfig def{};
    const auto key = [](const SpArchConfig &c) {
        return ResultCache::key(c, "w", 1, 1,
                                ShardPolicy::NnzBalanced);
    };
    const std::uint64_t base = key(def);

    SpArchConfig c = def;
    c.clockHz = 2e9; // GHZ
    EXPECT_NE(key(c), base);
    c = def;
    c.mergeTree.layers = 5; // UNSIGNED, nested member path
    EXPECT_NE(key(c), base);
    c = def;
    c.writerFifo = 2048; // U64
    EXPECT_NE(key(c), base);
    c = def;
    c.matrixCondensing = false; // BOOL
    EXPECT_NE(key(c), base);
    c = def;
    c.replacement = ReplacementPolicy::Lru; // ENUM
    EXPECT_NE(key(c), base);
    c = def;
    c.scheduler = SchedulerKind::Sequential; // ENUM
    EXPECT_NE(key(c), base);
}

// ---------------------------------------------------- CLI surface

TEST(ConfigFieldRegistry, KeyListMatchesTheLegacyOrderExactly)
{
    // configKeyList is generated from the registry; the pre-registry
    // list is pinned verbatim (with the one new key appended) because
    // writeConfigOverrides — which the multi-process executor ships
    // to workers — emits keys in this order.
    EXPECT_EQ(
        cli::configKeyList(),
        "clock_ghz merge_layers merger_width merge_fifo "
        "combine_duplicates multipliers lookahead_fifo "
        "mata_fetch_width a_element_window prefetch_lines "
        "prefetch_line_elems row_fetchers prefetch_rows_ahead "
        "replacement writer_fifo writer_burst partial_fetch_burst "
        "memory hbm_channels hbm_bytes_per_cycle hbm_latency "
        "hbm_interleave ddr4_channels ddr4_bytes_per_cycle "
        "ddr4_banks ddr4_row_bytes ddr4_hit_latency "
        "ddr4_miss_penalty ddr4_interleave lpddr4_channels "
        "lpddr4_bytes_per_cycle lpddr4_banks lpddr4_row_bytes "
        "lpddr4_hit_latency lpddr4_miss_penalty lpddr4_interleave "
        "ideal_latency condensing scheduler prefetcher "
        "deadlock_cycle_cap");
}

TEST(ConfigFieldRegistry, DeadlockCycleCapRoundTripsThroughTheCli)
{
    SpArchConfig config;
    EXPECT_EQ(cli::renderConfigValue(config, "deadlock_cycle_cap"),
              "0");
    cli::applyConfigOption(config, "deadlock_cycle_cap", "5000");
    EXPECT_EQ(config.deadlockCycleCap, 5000u);
    EXPECT_EQ(cli::renderConfigValue(config, "deadlock_cycle_cap"),
              "5000");
}

TEST(ConfigFieldRegistry, EnumSpellingsMatchTheRegistry)
{
    // Display names and CLI parse/render all come from the same
    // SPARCH_CONFIG_ENUM_VALUE / SPARCH_MEM_KIND entries.
    SpArchConfig config;
    cli::applyConfigOption(config, "replacement", "fifo");
    EXPECT_EQ(config.replacement, ReplacementPolicy::Fifo);
    EXPECT_EQ(cli::renderConfigValue(config, "replacement"), "fifo");
    EXPECT_STREQ(replacementPolicyName(config.replacement), "fifo");

    cli::applyConfigOption(config, "scheduler", "sequential");
    EXPECT_EQ(config.scheduler, SchedulerKind::Sequential);
    EXPECT_STREQ(schedulerKindName(config.scheduler), "sequential");

    cli::applyConfigOption(config, "memory", "lpddr4");
    EXPECT_EQ(config.memory.kind, mem::MemoryKind::Lpddr4);
    EXPECT_EQ(cli::renderConfigValue(config, "memory"), "lpddr4");
    EXPECT_STREQ(mem::memoryKindName(config.memory.kind), "lpddr4");
}

// ----------------------------------------------------- CSV schema

TEST(ConfigFieldRegistry, CsvHeaderIsByteIdenticalToTheLegacyHeader)
{
    // The fig12/sweep CSV header, byte for byte: record_fields.def
    // order IS the column order, and reordering it would invalidate
    // every persisted cache and the bench byte-identity pins.
    EXPECT_STREQ(
        BatchRunner::csvHeader(),
        "id,config,workload,seed,shards,cycles,seconds,flops,gflops,"
        "bytes_mat_a,bytes_mat_b,bytes_partial_read,"
        "bytes_partial_write,bytes_final_write,bytes_total,"
        "bandwidth_utilization,prefetch_hit_rate,multiplies,"
        "additions,partial_matrices,merge_rounds,result_nnz,tier");
}

// ------------------------------------------------ registry counts

TEST(ConfigFieldRegistry, EntryCountsMatchTheCompileTimePins)
{
    // Mirrors the static_asserts in core/config_registry.hh so a
    // registry change shows up in a test log, not just a build break.
    EXPECT_EQ(registry::kConfigFieldEntries, 21u);
    EXPECT_EQ(registry::kMemoryFieldEntries, 12u);
    EXPECT_EQ(registry::aggregateFieldCount<SpArchConfig>(), 19u);
    EXPECT_EQ(registry::aggregateFieldCount<mem::MemoryConfig>(), 5u);
    EXPECT_EQ(registry::aggregateFieldCount<mem::HbmConfig>(), 4u);
    EXPECT_EQ(registry::aggregateFieldCount<mem::BankedDramConfig>(),
              7u);
    EXPECT_EQ(registry::aggregateFieldCount<mem::IdealConfig>(), 1u);
}

} // namespace
} // namespace sparch
