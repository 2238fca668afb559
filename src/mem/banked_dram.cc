#include "mem/banked_dram.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sparch
{
namespace mem
{

BankedDramBackend::BankedDramBackend(const BankedDramConfig &config,
                                     MemoryKind kind)
    : config_(config), kind_(kind)
{
    SPARCH_ASSERT(config_.channels > 0,
                  "banked DRAM needs at least one channel");
    SPARCH_ASSERT(config_.bytesPerCyclePerChannel > 0,
                  "banked DRAM channel bandwidth must be positive");
    SPARCH_ASSERT(config_.banksPerChannel > 0,
                  "banked DRAM needs at least one bank per channel");
    SPARCH_ASSERT(config_.rowBufferBytes > 0,
                  "banked DRAM row buffer must be positive");
    SPARCH_ASSERT(config_.interleaveBytes > 0,
                  "banked DRAM interleave granularity must be positive");
    channel_busy_until_.assign(config_.channels, 0);
    open_row_.assign(
        static_cast<std::size_t>(config_.channels) *
            config_.banksPerChannel,
        -1);
}

Cycle
BankedDramBackend::timeAccess(Bytes addr, Bytes bytes, Cycle now,
                              bool is_write)
{
    // Chunking and channel striping as in the HBM backend; each chunk
    // additionally consults its bank's row buffer.
    const Bytes gran = config_.interleaveBytes;
    const Bytes bw = config_.bytesPerCyclePerChannel;
    Cycle last_done = now;

    Bytes offset = addr % gran;
    Bytes chunk_addr = addr - offset;
    Bytes remaining = bytes;
    unsigned channel =
        static_cast<unsigned>((addr / gran) % config_.channels);
    while (remaining > 0) {
        const Bytes chunk = std::min(remaining, gran - offset);
        offset = 0;

        const std::int64_t row = static_cast<std::int64_t>(
            chunk_addr / config_.rowBufferBytes);
        const std::size_t bank =
            static_cast<std::size_t>(channel) *
                config_.banksPerChannel +
            static_cast<std::size_t>(row) % config_.banksPerChannel;
        Cycle penalty = 0;
        if (open_row_[bank] == row) {
            ++row_hits_;
        } else {
            ++row_misses_;
            open_row_[bank] = row;
            penalty = config_.rowMissPenalty;
        }

        Cycle &busy = channel_busy_until_[channel];
        const Cycle start = std::max(busy, now);
        const Cycle xfer = (chunk + bw - 1) / bw;
        busy = start + penalty + xfer;
        last_done = std::max(last_done, busy);

        chunk_addr += gran;
        remaining -= chunk;
        channel = (channel + 1) % config_.channels;
    }

    return is_write ? last_done : last_done + config_.rowHitLatency;
}

void
BankedDramBackend::resetTiming()
{
    std::fill(channel_busy_until_.begin(), channel_busy_until_.end(), 0);
    std::fill(open_row_.begin(), open_row_.end(), -1);
    row_hits_ = 0;
    row_misses_ = 0;
}

void
BankedDramBackend::recordTimingStats(StatSet &stats) const
{
    stats.set("dram.row_hits", static_cast<double>(row_hits_));
    stats.set("dram.row_misses", static_cast<double>(row_misses_));
}

} // namespace mem
} // namespace sparch
