/**
 * @file
 * Banked DRAM backends: DDR4 and LPDDR4.
 *
 * The shared timing core extends the HBM-style channel-occupancy model
 * with per-bank row buffers: each interleave-granularity chunk maps to
 * a (channel, bank), and a chunk whose row differs from the bank's open
 * row additionally occupies the channel for the precharge + activate
 * penalty before transferring. Reads return after the row-hit (CAS
 * class) latency on top of the last beat; writes are posted and
 * complete when the last beat drains, matching the HBM backend's
 * convention so the pipeline sees a uniform contract.
 *
 * Ddr4Backend makes OuterSpace-class DDR4 baselines apples-to-apples
 * with the HBM design point; Lpddr4Backend is the low-power corner for
 * energy sweeps. Both are the same machine with different parameters
 * (ddr4Defaults() / lpddr4Defaults()).
 */

#ifndef SPARCH_MEM_BANKED_DRAM_HH
#define SPARCH_MEM_BANKED_DRAM_HH

#include <cstdint>
#include <vector>

#include "mem/memory_model.hh"

namespace sparch
{
namespace mem
{

/** Channel-occupancy DRAM timing with per-bank row buffers. */
class BankedDramBackend : public MemoryModel
{
  public:
    BankedDramBackend(const BankedDramConfig &config, MemoryKind kind);

    Bytes
    peakBytesPerCycle() const override
    {
        return config_.peakBytesPerCycle();
    }

    MemoryKind kind() const override { return kind_; }

    const BankedDramConfig &config() const { return config_; }

    /** Chunk accesses that hit their bank's open row. */
    std::uint64_t rowHits() const { return row_hits_; }

    /** Chunk accesses that had to open a new row. */
    std::uint64_t rowMisses() const { return row_misses_; }

  protected:
    Cycle timeAccess(Bytes addr, Bytes bytes, Cycle now,
                     bool is_write) override;
    void resetTiming() override;
    void recordTimingStats(StatSet &stats) const override;

  private:
    BankedDramConfig config_;
    MemoryKind kind_;

    std::vector<Cycle> channel_busy_until_;
    /** Open row per (channel, bank); -1 = all banks precharged. */
    std::vector<std::int64_t> open_row_;

    std::uint64_t row_hits_ = 0;
    std::uint64_t row_misses_ = 0;
};

/** Dual-channel DDR4 (the OuterSpace-class baseline memory). */
class Ddr4Backend final : public BankedDramBackend
{
  public:
    explicit Ddr4Backend(const BankedDramConfig &config = ddr4Defaults())
        : BankedDramBackend(config, MemoryKind::Ddr4)
    {}
};

/** Quad-channel LPDDR4 (the low-power energy-sweep point). */
class Lpddr4Backend final : public BankedDramBackend
{
  public:
    explicit Lpddr4Backend(
        const BankedDramConfig &config = lpddr4Defaults())
        : BankedDramBackend(config, MemoryKind::Lpddr4)
    {}
};

} // namespace mem
} // namespace sparch

#endif // SPARCH_MEM_BANKED_DRAM_HH
