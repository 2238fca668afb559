/**
 * @file
 * CPU / GPU / mobile-CPU baseline models (paper Section III-A).
 *
 * The paper measures Intel MKL on a Core i7-5930K, cuSPARSE and CUSP
 * on a TITAN Xp, and Armadillo on an ARM A53. None of that hardware is
 * available here, so each library is replaced by the model documented
 * in README "Benches", substitution 3:
 *
 *  - MKL      -> a *measured* host run of our Gustavson-hash SpGEMM
 *                (the same algorithmic class as mkl_sparse_spmm),
 *                scaled by a calibration factor for the 6-core part;
 *  - cuSPARSE -> roofline proxy: hash-based insertion traffic over the
 *                TITAN Xp memory system;
 *  - CUSP     -> roofline proxy: expand-sort-compress traffic;
 *  - Armadillo-> in-order-core model with measured-per-op cost.
 *
 * The proxies preserve the *shape* of the comparison (ordering, rough
 * factors, sensitivity to density); absolute numbers depend on the
 * host.
 */

#ifndef SPARCH_BASELINES_PLATFORM_MODELS_HH
#define SPARCH_BASELINES_PLATFORM_MODELS_HH

#include "baselines/outerspace_model.hh"
#include "matrix/csr.hh"

namespace sparch
{

/** MKL proxy: measured wall-clock of the host hash SpGEMM. */
struct MklProxyConfig
{
    /**
     * Host-to-target scaling: the paper's 6-core i7-5930K with MKL
     * runs this algorithm class roughly this factor faster than one
     * container core running our implementation.
     */
    double hostSpeedupFactor = 14.0;
    /** Measured dynamic power of the CPU under MKL load (W). */
    double dynamicPowerW = 60.0;
    /** Repetitions for the wall-clock measurement. */
    unsigned repeats = 3;
};

/** GPU roofline proxy parameters (TITAN Xp). */
struct GpuProxyConfig
{
    double bandwidthGBs = 547.0; //!< TITAN Xp peak memory bandwidth
    /**
     * Achieved fraction of peak bandwidth. SpGEMM insertion is
     * random-access dominated (hash probes / sort scatter), so the
     * effective efficiency is far below streaming: calibrated so the
     * proxy lands near the paper's measured cuSPARSE/CUSP points.
     */
    double efficiency = 0.015;
    /** Extra bytes moved per multiply by the insertion method. */
    double bytesPerMultiply = 24.0; // hash (cuSPARSE) default
    /** Dynamic power under memory-bound SpGEMM (well below TDP). */
    double dynamicPowerW = 110.0;
    /** Fixed kernel launch/setup overhead (s). */
    double overheadS = 40e-6;
};

/** ARM A53 in-order-core model. */
struct ArmProxyConfig
{
    /** Effective seconds per scalar multiply-insert on the A53. */
    double secondsPerMultiply = 160e-9;
    /** A53 cluster dynamic power under load. */
    double dynamicPowerW = 0.45;
};

/** Evaluate the MKL proxy (actually runs the host SpGEMM). */
BaselineResult mklProxy(const CsrMatrix &a, const CsrMatrix &b,
                        const MklProxyConfig &config = MklProxyConfig{});

/** Evaluate the cuSPARSE-style hash GPU proxy. */
BaselineResult cusparseProxy(const CsrMatrix &a, const CsrMatrix &b,
                             GpuProxyConfig config = GpuProxyConfig{});

/** Evaluate the CUSP-style expand-sort-compress GPU proxy. */
BaselineResult cuspProxy(const CsrMatrix &a, const CsrMatrix &b,
                         GpuProxyConfig config = GpuProxyConfig{});

/** Evaluate the Armadillo / ARM A53 proxy. */
BaselineResult armadilloProxy(const CsrMatrix &a, const CsrMatrix &b,
                              const ArmProxyConfig &config =
                                  ArmProxyConfig{});

} // namespace sparch

#endif // SPARCH_BASELINES_PLATFORM_MODELS_HH
