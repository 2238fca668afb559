/**
 * @file
 * Backend-conformance suite for the pluggable memory layer, run
 * against all four MemoryModel implementations: byte accounting per
 * DramStream, monotonic completion times, reset semantics and the
 * utilization divide-by-zero guard. Plus golden tests pinning
 * HbmBackend to the seed HbmModel's exact cycle arithmetic, the
 * DDR4 row-buffer behavior, the ideal backend's contract, and a full
 * cycle-simulation ordering check (ideal <= hbm <= ddr4).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "core/sparch_simulator.hh"
#include "matrix/generators.hh"
#include "mem/banked_dram.hh"
#include "mem/hbm_backend.hh"
#include "mem/ideal_backend.hh"
#include "mem/memory_model.hh"
#include "model/energy_model.hh"

namespace sparch
{
namespace
{

using mem::BankedDramConfig;
using mem::Ddr4Backend;
using mem::HbmBackend;
using mem::HbmConfig;
using mem::IdealBackend;
using mem::Lpddr4Backend;
using mem::MemoryConfig;
using mem::MemoryKind;
using mem::MemoryModel;

using Factory = std::function<std::unique_ptr<MemoryModel>()>;

/** One default-configured instance of every backend. */
std::vector<std::pair<std::string, Factory>>
allBackends()
{
    return {
        {"hbm", [] { return std::make_unique<HbmBackend>(); }},
        {"ddr4", [] { return std::make_unique<Ddr4Backend>(); }},
        {"lpddr4", [] { return std::make_unique<Lpddr4Backend>(); }},
        {"ideal", [] { return std::make_unique<IdealBackend>(); }},
    };
}

TEST(MemoryConformance, ByteAccountingPerStream)
{
    for (const auto &[name, make] : allBackends()) {
        SCOPED_TRACE(name);
        auto mem = make();
        mem->read(DramStream::MatA, 0, 120, 0);
        mem->read(DramStream::MatB, 4096, 72, 3);
        mem->write(DramStream::PartialWrite, 8192, 240, 5);
        mem->write(DramStream::FinalWrite, 1 << 20, 36, 9);
        EXPECT_EQ(mem->streamBytes(DramStream::MatA), 120u);
        EXPECT_EQ(mem->streamBytes(DramStream::MatB), 72u);
        EXPECT_EQ(mem->streamBytes(DramStream::PartialRead), 0u);
        EXPECT_EQ(mem->streamBytes(DramStream::PartialWrite), 240u);
        EXPECT_EQ(mem->streamBytes(DramStream::FinalWrite), 36u);
        EXPECT_EQ(mem->totalReadBytes(), 192u);
        EXPECT_EQ(mem->totalWriteBytes(), 276u);
        EXPECT_EQ(mem->totalBytes(), 468u);
    }
}

TEST(MemoryConformance, ZeroByteAccessIsFree)
{
    for (const auto &[name, make] : allBackends()) {
        SCOPED_TRACE(name);
        auto mem = make();
        EXPECT_EQ(mem->read(DramStream::MatA, 0, 0, 7), 7u);
        EXPECT_EQ(mem->write(DramStream::FinalWrite, 64, 0, 11), 11u);
        EXPECT_EQ(mem->totalBytes(), 0u);
    }
}

TEST(MemoryConformance, CompletionNeverPrecedesIssue)
{
    for (const auto &[name, make] : allBackends()) {
        SCOPED_TRACE(name);
        auto mem = make();
        for (Cycle now : {0u, 17u, 1000u}) {
            EXPECT_GE(mem->read(DramStream::MatB, 64 * now, 96, now),
                      now);
            EXPECT_GE(mem->write(DramStream::PartialWrite, 64 * now,
                                 96, now),
                      now);
        }
    }
}

TEST(MemoryConformance, MonotonicCompletionTimes)
{
    // Issuing all-channel accesses at nondecreasing times must give
    // nondecreasing completion times: no backend may travel back in
    // time as its queues drain. (The request spans every channel of
    // every default backend, so completion tracks the global backlog.)
    for (const auto &[name, make] : allBackends()) {
        SCOPED_TRACE(name);
        auto mem = make();
        Cycle prev_done = 0;
        for (unsigned i = 0; i < 64; ++i) {
            const Cycle now = 13 * i;
            const Cycle done =
                mem->read(DramStream::MatB, 0, 4096, now);
            EXPECT_GE(done, prev_done);
            prev_done = done;
        }
    }
}

TEST(MemoryConformance, ResetRestoresFreshState)
{
    for (const auto &[name, make] : allBackends()) {
        SCOPED_TRACE(name);
        auto mem = make();
        auto fresh = make();
        mem->read(DramStream::MatA, 0, 4096, 0);
        mem->write(DramStream::PartialWrite, 512, 2048, 2);
        mem->reset();
        EXPECT_EQ(mem->totalBytes(), 0u);
        EXPECT_EQ(mem->streamBytes(DramStream::MatA), 0u);
        // Timing state is cleared too: the next access completes
        // exactly like on a never-used instance.
        EXPECT_EQ(mem->read(DramStream::MatB, 128, 512, 1),
                  fresh->read(DramStream::MatB, 128, 512, 1));
    }
}

TEST(MemoryConformance, UtilizationGuardsZeroCycleAndZeroPeak)
{
    // Regression (satellite of ISSUE 4): utilization at end_cycle == 0
    // must be exactly 0 for every backend, never a division by zero or
    // NaN — and the ideal backend (peak == 0) must report 0 always.
    for (const auto &[name, make] : allBackends()) {
        SCOPED_TRACE(name);
        auto mem = make();
        EXPECT_EQ(mem->utilization(0), 0.0);
        mem->read(DramStream::MatA, 0, 1 << 14, 0);
        EXPECT_EQ(mem->utilization(0), 0.0);
        const double u = mem->utilization(100);
        EXPECT_FALSE(std::isnan(u));
        EXPECT_GE(u, 0.0);
        if (mem->peakBytesPerCycle() == 0)
            EXPECT_EQ(u, 0.0); // ideal: no finite peak
        else
            EXPECT_GT(u, 0.0);
    }
}

TEST(MemoryConformance, RecordsStreamStats)
{
    for (const auto &[name, make] : allBackends()) {
        SCOPED_TRACE(name);
        auto mem = make();
        mem->read(DramStream::MatB, 0, 96, 0);
        StatSet stats;
        mem->recordStats(stats);
        EXPECT_DOUBLE_EQ(stats.get("dram.bytes.mat_b"), 96.0);
        EXPECT_DOUBLE_EQ(stats.get("dram.bytes.total"), 96.0);
    }
}

TEST(MemoryKindNames, RoundTrip)
{
    EXPECT_STREQ(mem::memoryKindName(MemoryKind::Hbm), "hbm");
    EXPECT_STREQ(mem::memoryKindName(MemoryKind::Ddr4), "ddr4");
    EXPECT_STREQ(mem::memoryKindName(MemoryKind::Lpddr4), "lpddr4");
    EXPECT_STREQ(mem::memoryKindName(MemoryKind::Ideal), "ideal");
}

TEST(MemoryFactory, InstantiatesSelectedBackend)
{
    MemoryConfig cfg;
    for (MemoryKind kind : {MemoryKind::Hbm, MemoryKind::Ddr4,
                            MemoryKind::Lpddr4, MemoryKind::Ideal}) {
        cfg.kind = kind;
        EXPECT_EQ(mem::createMemoryModel(cfg)->kind(), kind);
    }
}

// ---- HbmBackend golden: the seed HbmModel's exact arithmetic ----

TEST(HbmBackendGolden, ReproducesSeedModelCycleCounts)
{
    // Default Table I stack: 16 channels x 8 B/cycle, 64-cycle access
    // latency, 64 B interleave. These expectations are the seed
    // HbmModel's hand-computed answers; HbmBackend must match exactly.
    HbmBackend hbm;
    // 1024 B = 16 chunks of 64 B, one per channel, 8 cycles each, all
    // in parallel -> data at 8 + 64 latency.
    EXPECT_EQ(hbm.read(DramStream::MatA, 0, 1024, 0), 72u);
    // Same again: every channel is busy until 8 -> 16 + 64.
    EXPECT_EQ(hbm.read(DramStream::MatA, 0, 1024, 0), 80u);
    // A 256 B write starting at channel 8 queues behind the reads
    // (busy until 16): 16 + 8 transfer cycles, no read latency.
    EXPECT_EQ(hbm.write(DramStream::PartialWrite, 512, 256, 5), 24u);
    EXPECT_EQ(hbm.totalBytes(), 2304u);
}

TEST(HbmBackendGolden, SingleChannelBackToBack)
{
    HbmConfig cfg;
    cfg.channels = 1;
    cfg.accessLatency = 0;
    cfg.bytesPerCyclePerChannel = 8;
    cfg.interleaveBytes = 64;
    HbmBackend hbm(cfg);
    EXPECT_EQ(hbm.read(DramStream::MatA, 0, 64, 0), 8u);
    EXPECT_EQ(hbm.read(DramStream::MatA, 0, 64, 0), 16u);
}

TEST(HbmBackendGolden, UnalignedSplitAtInterleaveBoundary)
{
    HbmConfig cfg;
    cfg.channels = 2;
    cfg.accessLatency = 0;
    HbmBackend hbm(cfg);
    EXPECT_EQ(hbm.read(DramStream::MatA, 60, 8, 0), 1u);
    EXPECT_EQ(hbm.totalBytes(), 8u);
}

TEST(HbmBackendGolden, InvalidConfigPanics)
{
    HbmConfig cfg;
    cfg.channels = 0;
    EXPECT_THROW(HbmBackend{cfg}, PanicError);
}

// ---- DDR4 row-buffer behavior ----

TEST(Ddr4Backend, RowBufferHitIsCheaperThanMiss)
{
    BankedDramConfig cfg;
    cfg.channels = 1;
    cfg.bytesPerCyclePerChannel = 16;
    cfg.banksPerChannel = 2;
    cfg.rowBufferBytes = 128;
    cfg.rowHitLatency = 10;
    cfg.rowMissPenalty = 40;
    cfg.interleaveBytes = 64;
    Ddr4Backend ddr(cfg);

    // Cold bank: opening row 0 pays the 40-cycle penalty plus 4
    // transfer cycles plus the 10-cycle CAS-class latency.
    EXPECT_EQ(ddr.read(DramStream::MatB, 0, 64, 0), 54u);
    // Same row (bytes 64..128 of row 0): pure hit.
    EXPECT_EQ(ddr.read(DramStream::MatB, 64, 64, 100), 114u);
    // Row 2 maps to the same bank (2 banks): conflict, miss again.
    EXPECT_EQ(ddr.read(DramStream::MatB, 256, 64, 200), 254u);
    EXPECT_EQ(ddr.rowHits(), 1u);
    EXPECT_EQ(ddr.rowMisses(), 2u);
}

TEST(Ddr4Backend, SequentialStreamMostlyHitsTheRowBuffer)
{
    Ddr4Backend ddr;
    Cycle now = 0;
    for (Bytes addr = 0; addr < 64 * 1024; addr += 256)
        now = ddr.read(DramStream::MatB, addr, 256, now);
    EXPECT_GT(ddr.rowHits(), ddr.rowMisses()); // hit rate above 0.5
    StatSet stats;
    ddr.recordStats(stats);
    EXPECT_GT(stats.get("dram.row_hits"), 0.0);
    EXPECT_GT(stats.get("dram.row_misses"), 0.0);
}

TEST(Ddr4Backend, InvalidConfigPanics)
{
    BankedDramConfig cfg;
    cfg.banksPerChannel = 0;
    EXPECT_THROW(Ddr4Backend{cfg}, PanicError);
}

TEST(Lpddr4Backend, IsTheLowBandwidthPoint)
{
    Lpddr4Backend lp;
    Ddr4Backend ddr;
    HbmBackend hbm;
    EXPECT_LT(lp.peakBytesPerCycle(), ddr.peakBytesPerCycle());
    EXPECT_LT(ddr.peakBytesPerCycle(), hbm.peakBytesPerCycle());
}

// ---- ideal backend contract ----

TEST(IdealBackend, CompletesInstantlyAndStillCountsBytes)
{
    IdealBackend ideal;
    EXPECT_EQ(ideal.read(DramStream::MatA, 0, 1 << 20, 42), 42u);
    EXPECT_EQ(ideal.write(DramStream::FinalWrite, 0, 1 << 20, 42),
              42u);
    EXPECT_EQ(ideal.totalBytes(), 2u << 20);
    EXPECT_EQ(ideal.peakBytesPerCycle(), 0u);
    EXPECT_EQ(ideal.utilization(1000), 0.0);
}

TEST(IdealBackend, OptionalFixedReadLatency)
{
    mem::IdealConfig cfg;
    cfg.accessLatency = 5;
    IdealBackend ideal(cfg);
    EXPECT_EQ(ideal.read(DramStream::MatA, 0, 64, 10), 15u);
    EXPECT_EQ(ideal.write(DramStream::FinalWrite, 0, 64, 10), 10u);
}

// ---- whole-simulator agreement across backends ----

TEST(SimulatorMemoryBackends, SameProductDifferentTiming)
{
    const CsrMatrix a = generateUniform(220, 220, 1800, 11);

    SpArchConfig cfg;
    std::vector<SpArchResult> results;
    for (MemoryKind kind : {MemoryKind::Ideal, MemoryKind::Hbm,
                            MemoryKind::Ddr4, MemoryKind::Lpddr4}) {
        cfg.memory.kind = kind;
        SpArchSimulator sim(cfg);
        results.push_back(sim.multiply(a, a));
    }

    // The memory backend is timing-only: every backend computes the
    // same product (same structure; values to FP tolerance, since
    // arrival timing can reassociate the adder-slice sums — the same
    // effect the sharded stitcher documents) and moves the identical
    // bytes.
    for (std::size_t i = 1; i < results.size(); ++i) {
        EXPECT_EQ(results[i].result.nnz(), results[0].result.nnz());
        EXPECT_TRUE(results[i].result.almostEqual(results[0].result));
        EXPECT_EQ(results[i].bytesTotal, results[0].bytesTotal);
        EXPECT_EQ(results[i].bytesMatB, results[0].bytesMatB);
    }

    // Cycle ordering: ideal <= hbm <= ddr4 <= lpddr4 at the default
    // parameter points (DDR4/LPDDR4 never beat HBM on latency *or*
    // bandwidth by construction).
    EXPECT_LE(results[0].cycles, results[1].cycles); // ideal <= hbm
    EXPECT_LE(results[1].cycles, results[2].cycles); // hbm <= ddr4
    EXPECT_LE(results[2].cycles, results[3].cycles); // ddr4 <= lpddr4
    EXPECT_EQ(results[0].bandwidthUtilization, 0.0);
}

TEST(EnergyPerBackend, DramEnergyOrdering)
{
    using EM = EnergyModel;
    EXPECT_DOUBLE_EQ(EM::dramEnergyPerByte(MemoryKind::Hbm),
                     EM::dramEnergyPerByte());
    EXPECT_GT(EM::dramEnergyPerByte(MemoryKind::Ddr4),
              EM::dramEnergyPerByte(MemoryKind::Hbm));
    EXPECT_LT(EM::dramEnergyPerByte(MemoryKind::Lpddr4),
              EM::dramEnergyPerByte(MemoryKind::Hbm));
    EXPECT_EQ(EM::dramEnergyPerByte(MemoryKind::Ideal), 0.0);

    // energy() picks the backend figure up from the configuration.
    SpArchConfig cfg;
    cfg.memory.kind = MemoryKind::Ddr4;
    SpArchResult r;
    r.bytesTotal = 1000000;
    const double ddr4J = EnergyModel(cfg).energy(r).dramJ;
    const double hbmJ = EnergyModel().energy(r).dramJ;
    EXPECT_GT(ddr4J, hbmJ);
}

} // namespace
} // namespace sparch
