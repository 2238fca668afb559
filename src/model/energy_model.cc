#include "model/energy_model.hh"

#include <cstdint>

namespace sparch
{

namespace
{

// ---- calibration anchors: the paper's published breakdown ----

// Fig. 13(a), mm^2 at the Table I configuration (sums to 28.5).
constexpr double kAreaColumnFetcher = 2.64;
constexpr double kAreaRowPrefetcher = 5.80;
constexpr double kAreaMultiplier = 0.45;
constexpr double kAreaMergeTree = 17.27;
constexpr double kAreaWriter = 2.34;

// Fig. 13(b), watts at the Table I configuration.
constexpr double kPowerColumnFetcher = 0.10139;
constexpr double kPowerRowPrefetcher = 1.15572;
constexpr double kPowerMultiplier = 0.07310;
constexpr double kPowerMergeTree = 4.73847;
constexpr double kPowerWriter = 0.24304;
constexpr double kPowerHbm = 2.2404;
// Non-HBM memory power at the same ~75% average utilization: peak
// bandwidth (B/cycle at 1 GHz) x the backend's energy per byte.
constexpr double kTypicalUtilization = 0.75;

// ---- per-event energies (picojoules), chosen so the Table I design
// reproduces the Table III per-FLOP split at the paper's average
// operating point ----
constexpr double kPjMultiply = 100.0;       // FP64 multiply [30]
constexpr double kPjAdd = 50.0;             // FP64 add [30]
constexpr double kPjTreeElementMove = 60.0; // comparator work / element
constexpr double kPjFifoAccess = 40.0;      // 12-byte FIFO push or pop
constexpr double kPjBufferElemRead = 20.0;  // prefetch buffer read/elem
constexpr double kPjBufferLineWrite = 500.0; // prefetch line fill

/**
 * Comparators in a width-w merger. When 4 | w (w >= 8) it is the
 * paper's hierarchical merger (Fig. 4): c = w/4 chunks per side,
 * 2c - 1 low-level 4x4 arrays plus one c x c array over the chunk
 * lasts. Otherwise it is the flat w x w comparator array (Fig. 3).
 */
double
comparatorsFor(unsigned width)
{
    if (width >= 8 && width % 4 == 0) {
        const std::uint64_t c = width / 4;
        return static_cast<double>((2 * c - 1) * 16 + c * c);
    }
    return static_cast<double>(width) * width;
}

} // namespace

EnergyModel::EnergyModel(const SpArchConfig &config) : config_(config)
{}

EventEnergiesPj
EnergyModel::eventEnergiesPj()
{
    EventEnergiesPj e;
    e.multiply = kPjMultiply;
    e.add = kPjAdd;
    e.treeElementMove = kPjTreeElementMove;
    e.fifoAccess = kPjFifoAccess;
    e.bufferElemRead = kPjBufferElemRead;
    e.bufferLineWrite = kPjBufferLineWrite;
    return e;
}

double
EnergyModel::dramEnergyPerByte()
{
    // Table II note: "the same DRAM power estimation as OuterSPACE,
    // which is 42.6 GB/s/W" -> 1 / 42.6e9 joules per byte.
    return 1.0 / 42.6e9;
}

double
EnergyModel::dramEnergyPerByte(mem::MemoryKind kind)
{
    switch (kind) {
      case mem::MemoryKind::Hbm:
        return dramEnergyPerByte();
      case mem::MemoryKind::Ddr4:
        // Off-package DDR4 pays roughly 3x the pJ/byte of stacked HBM
        // (long board traces, higher I/O voltage): ~14.2 GB/s/W.
        return 1.0 / 14.2e9;
      case mem::MemoryKind::Lpddr4:
        // Mobile DRAM undercuts HBM per byte: ~51.2 GB/s/W.
        return 1.0 / 51.2e9;
      case mem::MemoryKind::Ideal:
        return 0.0;
    }
    return dramEnergyPerByte();
}

AreaBreakdown
EnergyModel::area() const
{
    const SpArchConfig def{};
    AreaBreakdown a;

    a.columnFetcher = kAreaColumnFetcher *
        static_cast<double>(config_.lookaheadFifo) /
        static_cast<double>(def.lookaheadFifo);

    const double buf_bytes = static_cast<double>(
        config_.prefetchLines * config_.prefetchLineElems);
    const double def_buf = static_cast<double>(
        def.prefetchLines * def.prefetchLineElems);
    a.rowPrefetcher = kAreaRowPrefetcher * buf_bytes / def_buf;

    a.multiplierArray = kAreaMultiplier *
        static_cast<double>(config_.multipliers) / def.multipliers;

    // Merge tree: comparators scale with the per-layer merger, FIFO
    // storage with node count x depth. Split per the synthesis result
    // that comparator logic and FIFO SRAM are roughly 60/40 in the
    // tree macro.
    const double cmp_scale =
        (static_cast<double>(config_.mergeTree.layers) /
         def.mergeTree.layers) *
        (comparatorsFor(config_.mergeTree.mergerWidth) /
         comparatorsFor(def.mergeTree.mergerWidth));
    const double fifo_scale =
        (static_cast<double>(1u << (config_.mergeTree.layers + 1)) *
         static_cast<double>(config_.mergeTree.fifoCapacity)) /
        (static_cast<double>(1u << (def.mergeTree.layers + 1)) *
         static_cast<double>(def.mergeTree.fifoCapacity));
    a.mergeTree =
        kAreaMergeTree * (0.6 * cmp_scale + 0.4 * fifo_scale);

    a.partialMatWriter = kAreaWriter *
        static_cast<double>(config_.writerFifo) /
        static_cast<double>(def.writerFifo);
    return a;
}

PowerBreakdown
EnergyModel::typicalPower() const
{
    // At a fixed activity factor power tracks the structure sizes, so
    // reuse the area scaling ratios.
    const AreaBreakdown a = area();
    PowerBreakdown p;
    p.columnFetcher =
        kPowerColumnFetcher * a.columnFetcher / kAreaColumnFetcher;
    p.rowPrefetcher =
        kPowerRowPrefetcher * a.rowPrefetcher / kAreaRowPrefetcher;
    p.multiplierArray =
        kPowerMultiplier * a.multiplierArray / kAreaMultiplier;
    p.mergeTree = kPowerMergeTree * a.mergeTree / kAreaMergeTree;
    p.partialMatWriter =
        kPowerWriter * a.partialMatWriter / kAreaWriter;
    if (config_.memory.kind == mem::MemoryKind::Hbm) {
        p.dram = kPowerHbm; // the Fig. 13(b) calibration anchor
    } else {
        p.dram =
            kTypicalUtilization *
            static_cast<double>(config_.memory.peakBytesPerCycle()) *
            config_.clockHz *
            dramEnergyPerByte(config_.memory.kind);
    }
    return p;
}

EnergyBreakdown
EnergyModel::energy(const SpArchResult &result) const
{
    EnergyBreakdown e;

    const double tree_moves =
        result.stats.get("merge_tree.elements_merged");
    e.computationJ =
        (static_cast<double>(result.multiplies) * kPjMultiply +
         static_cast<double>(result.additions) * kPjAdd +
         tree_moves * kPjTreeElementMove) *
        1e-12;

    const double fifo_accesses =
        result.stats.get("merge_tree.fifo_pushes") +
        result.stats.get("merge_tree.fifo_pops");
    const double buffer_reads =
        result.stats.get("row_prefetcher.buffer_reads");
    const double buffer_writes =
        result.stats.get("row_prefetcher.buffer_writes");
    e.sramJ = (fifo_accesses * kPjFifoAccess +
               buffer_reads * kPjBufferElemRead +
               buffer_writes * kPjBufferLineWrite) *
              1e-12;

    e.dramJ = static_cast<double>(result.bytesTotal) *
              dramEnergyPerByte(config_.memory.kind);
    return e;
}

} // namespace sparch
