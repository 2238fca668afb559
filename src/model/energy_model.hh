/**
 * @file
 * Energy and area model (paper Section III-A, Tables II/III, Fig. 13).
 *
 * The authors synthesized the array merger (Design Compiler, TSMC
 * 40 nm), took FPU numbers from Galal & Horowitz, SRAM/FIFO numbers
 * from CACTI, and DRAM power from the HBM2 spec at 42.6 GB/s/W. None
 * of those tools run here, so this model is *calibrated*: per-event
 * energies and per-structure areas are fixed so that the default
 * Table I configuration reproduces the paper's published breakdown
 * (Fig. 13, Table II, Table III), and they scale with the structural
 * parameters (comparator counts, buffer bytes, multiplier count) for
 * design-space sweeps. Event counts come from the cycle simulator, so
 * *relative* energy between configurations and workloads is preserved.
 * See README "Benches", substitution 2.
 */

#ifndef SPARCH_MODEL_ENERGY_MODEL_HH
#define SPARCH_MODEL_ENERGY_MODEL_HH

#include "core/sparch_config.hh"
#include "core/sparch_simulator.hh"

namespace sparch
{

/** Per-component area in mm^2 (TSMC 40 nm). */
struct AreaBreakdown
{
    double columnFetcher = 0.0;
    double rowPrefetcher = 0.0;
    double multiplierArray = 0.0;
    double mergeTree = 0.0;
    double partialMatWriter = 0.0;

    double
    total() const
    {
        return columnFetcher + rowPrefetcher + multiplierArray +
               mergeTree + partialMatWriter;
    }
};

/** Per-component power in watts at the evaluated operating point. */
struct PowerBreakdown
{
    double columnFetcher = 0.0;
    double rowPrefetcher = 0.0;
    double multiplierArray = 0.0;
    double mergeTree = 0.0;
    double partialMatWriter = 0.0;
    /** Memory-system power (HBM at the paper's operating point). */
    double dram = 0.0;

    double
    total() const
    {
        return columnFetcher + rowPrefetcher + multiplierArray +
               mergeTree + partialMatWriter + dram;
    }
};

/** Energy of one simulated SpGEMM, grouped as in Table III. */
struct EnergyBreakdown
{
    double computationJ = 0.0; //!< multipliers, adders, comparators
    double sramJ = 0.0;        //!< FIFOs and prefetch buffer
    double dramJ = 0.0;        //!< memory traffic (backend-specific)

    double total() const { return computationJ + sramJ + dramJ; }

    /** nJ per FLOP, the Table III normalization. */
    double
    perFlopNj(std::uint64_t flops) const
    {
        return flops == 0 ? 0.0 : total() * 1e9 /
                                      static_cast<double>(flops);
    }
};

/**
 * The calibrated per-event energies (picojoules). EnergyModel::energy
 * prices simulator event counts with these; the batched surrogate
 * evaluator (src/dse) prices its *estimated* event counts with the
 * same constants, so the two tiers of a surrogate-first sweep share
 * one calibration and their energies are directly comparable.
 */
struct EventEnergiesPj
{
    double multiply = 0.0;        //!< FP64 multiply
    double add = 0.0;             //!< FP64 add
    double treeElementMove = 0.0; //!< comparator work per element
    double fifoAccess = 0.0;      //!< 12-byte FIFO push or pop
    double bufferElemRead = 0.0;  //!< prefetch buffer read per element
    double bufferLineWrite = 0.0; //!< prefetch line fill
};

/** The calibrated energy/area model. */
class EnergyModel
{
  public:
    explicit EnergyModel(const SpArchConfig &config = SpArchConfig{});

    /** Structural area, scaling with the configuration. */
    AreaBreakdown area() const;

    /**
     * Operating power at the paper's average activity (used for the
     * Fig. 13(b) and Table II summaries).
     */
    PowerBreakdown typicalPower() const;

    /**
     * Energy of one simulated run, from its event counts. DRAM energy
     * uses the per-byte figure of the configured memory backend.
     */
    EnergyBreakdown energy(const SpArchResult &result) const;

    /** The per-event calibration constants energy() prices with. */
    static EventEnergiesPj eventEnergiesPj();

    /** HBM energy per byte from the 42.6 GB/s/W figure. */
    static double dramEnergyPerByte();

    /**
     * Energy per byte of one memory backend: HBM at the paper's
     * 42.6 GB/s/W, DDR4 roughly 3x that per byte, LPDDR4 below HBM
     * (the low-power point), ideal free.
     */
    static double dramEnergyPerByte(mem::MemoryKind kind);

    const SpArchConfig &config() const { return config_; }

  private:
    SpArchConfig config_;
};

} // namespace sparch

#endif // SPARCH_MODEL_ENERGY_MODEL_HH
