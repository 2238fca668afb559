/**
 * @file
 * OuterSPACE baseline model (Pal et al., HPCA 2018), the paper's
 * primary comparison point.
 *
 * OuterSPACE executes the outer product in two decoupled phases: the
 * multiply phase writes *every* partial product matrix to DRAM, the
 * merge phase reads them all back and combines them. Its performance
 * is therefore DRAM-traffic dominated: the SpArch paper measures it at
 * 48.3% bandwidth utilization on a 128 GB/s HBM and 10.4% of its
 * theoretical compute peak (Fig. 15: 2.5 GFLOPS), with 4.95 nJ/FLOP
 * (Table III). This analytic model reproduces that behaviour from the
 * actual workload traffic; see README "Benches", substitution 4.
 */

#ifndef SPARCH_BASELINES_OUTERSPACE_MODEL_HH
#define SPARCH_BASELINES_OUTERSPACE_MODEL_HH

#include <cstdint>

#include "common/types.hh"
#include "matrix/csr.hh"
#include "mem/memory_model.hh"

namespace sparch
{

/** Result of evaluating a baseline platform on one SpGEMM. */
struct BaselineResult
{
    double seconds = 0.0;
    double gflops = 0.0;
    double energyJ = 0.0;
    Bytes dramBytes = 0;
    std::uint64_t flops = 0;
};

/** OuterSPACE hardware parameters (from the two papers). */
struct OuterSpaceConfig
{
    double bandwidthGBs = 128.0;       //!< HBM bandwidth
    double bandwidthUtilization = 0.483; //!< measured by SpArch
    double peakGflops = 24.0;          //!< theoretical compute peak
    double peakFraction = 0.104;       //!< achieved fraction of peak
    double energyPerFlopNj = 4.95;     //!< Table III overall
};

/** Evaluate C = a x b on the OuterSPACE model. */
BaselineResult outerspaceModel(const CsrMatrix &a, const CsrMatrix &b,
                               const OuterSpaceConfig &config =
                                   OuterSpaceConfig{});

/**
 * OuterSPACE parameters re-based onto a memory backend, so the
 * baseline and a non-HBM SpArch run compare against the *same* memory
 * system: bandwidth comes from the backend's peak at `clock_hz`
 * (unchanged for `ideal`, which has no finite peak), and the DRAM
 * share of energy/FLOP is re-priced by the backend's energy per byte.
 * The published utilization and peak-fraction figures are kept —
 * OuterSPACE is traffic-dominated, so scaling its deliverable
 * bandwidth is the apples-to-apples adjustment.
 */
OuterSpaceConfig outerspaceConfigFor(const mem::MemoryConfig &memory,
                                     double clock_hz = 1e9);

/** The DRAM traffic OuterSPACE moves for C = a x b, in bytes. */
Bytes outerspaceTraffic(const CsrMatrix &a, const CsrMatrix &b,
                        std::uint64_t output_nnz);

} // namespace sparch

#endif // SPARCH_BASELINES_OUTERSPACE_MODEL_HH
