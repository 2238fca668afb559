#include "core/partial_matrix_io.hh"

#include <algorithm>

#include "common/logging.hh"

namespace sparch
{

PartialMatrixFetcher::PartialMatrixFetcher(const SpArchConfig &config,
                                           mem::MemoryModel &mem)
    : config_(&config), mem_(&mem)
{}

void
PartialMatrixFetcher::startRound(std::vector<StoredInput> inputs)
{
    inputs_.clear();
    for (auto &in : inputs) {
        InputState state;
        state.input = in;
        inputs_.push_back(state);
        if (in.data->empty()) {
            inputs_.back().finished = true;
            tree_->finishLeaf(in.port);
        }
    }
}

bool
PartialMatrixFetcher::done() const
{
    for (const auto &s : inputs_) {
        if (!s.finished)
            return false;
    }
    return true;
}

Cycle
PartialMatrixFetcher::nextEventCycle(Cycle) const
{
    Cycle next = hw::kNoEvent;
    for (const auto &s : inputs_) {
        if (!s.finished && s.fetched < s.burst_end)
            next = std::min(next, s.burst_ready);
    }
    return next;
}

bool
PartialMatrixFetcher::clockUpdate(Cycle now)
{
    bool moved = false;
    for (auto &s : inputs_) {
        if (s.finished)
            continue;
        const auto total = s.input.data->size();

        // Issue the next burst when the previous one has fully landed
        // and there is still data to fetch.
        if (s.fetched < total && s.fetched == s.burst_end) {
            const std::size_t burst = std::min(
                config_->partialFetchBurst, total - s.fetched);
            const Bytes addr = s.input.baseAddr +
                static_cast<Bytes>(s.fetched) * bytesPerElement;
            s.burst_ready = mem_->read(
                DramStream::PartialRead, addr,
                static_cast<Bytes>(burst) * bytesPerElement, now);
            s.burst_end = s.fetched + burst;
            moved = true;
        }
        if (s.fetched < s.burst_end && now >= s.burst_ready) {
            s.fetched = s.burst_end;
            moved = true;
        }

        // Stream landed elements into the leaf port.
        unsigned width = config_->mergeTree.mergerWidth;
        while (width > 0 && s.delivered < s.fetched &&
               tree_->leafFreeSpace(s.input.port) > 0) {
            tree_->pushLeaf(s.input.port,
                            (*s.input.data)[s.delivered]);
            ++s.delivered;
            ++elements_streamed_;
            --width;
            moved = true;
        }
        if (s.delivered == total) {
            s.finished = true;
            tree_->finishLeaf(s.input.port);
            moved = true;
        }
    }
    return moved;
}

void
PartialMatrixFetcher::recordStats(StatSet &stats) const
{
    stats.set("partial_fetcher.elements_streamed",
              static_cast<double>(elements_streamed_));
}

PartialMatrixWriter::PartialMatrixWriter(const SpArchConfig &config,
                                         mem::MemoryModel &mem,
                                         Index rows, Index cols,
                                         bool keep_product)
    : config_(&config), mem_(&mem), rows_(rows), cols_(cols),
      keep_product_(keep_product)
{}

void
PartialMatrixWriter::startRound(bool final_round, Bytes base_addr,
                                Bytes rowptr_bytes,
                                std::size_t reserve_hint,
                                std::vector<StreamElement> recycle)
{
    final_round_ = final_round;
    capture_ = !final_round || keep_product_;
    base_addr_ = base_addr;
    rowptr_bytes_ = rowptr_bytes;
    emitted_ = 0;
    pending_ = 0;
    last_write_done_ = 0;
    if (!capture_) {
        captured_ = {};
        return;
    }
    captured_ = std::move(recycle);
    captured_.clear();
    if (reserve_hint > 0)
        captured_.reserve(reserve_hint);
}

bool
PartialMatrixWriter::drained(Cycle now) const
{
    return tree_->done() && !tree_->rootHasData() && pending_ == 0 &&
           now >= last_write_done_;
}

std::vector<StreamElement>
PartialMatrixWriter::takeCaptured()
{
    return std::move(captured_);
}

void
PartialMatrixWriter::writeBurst(std::size_t elems, Cycle now)
{
    const auto stream = final_round_ ? DramStream::FinalWrite
                                     : DramStream::PartialWrite;
    const Bytes addr = base_addr_ +
        static_cast<Bytes>(emitted_ - pending_) * bytesPerElement;
    last_write_done_ = std::max(
        last_write_done_,
        mem_->write(stream, addr,
                    static_cast<Bytes>(elems) * bytesPerElement, now));
    pending_ -= elems;
    ++bursts_;
}

bool
PartialMatrixWriter::clockUpdate(Cycle now)
{
    // Drain the root; coalesce same-coordinate elements that slipped
    // through across merger window boundaries.
    unsigned width = config_->mergeTree.mergerWidth;
    while (width > 0 && tree_->rootHasPoppable() &&
           pending_ < config_->writerFifo) {
        const StreamElement e = tree_->popRoot();
        if (pending_ > 0 && last_coord_ == e.coord) {
            if (capture_)
                captured_.back().value += e.value;
            ++additions_;
        } else {
            if (final_round_) {
                // The product: strictly sorted (a written burst cannot
                // take a later equal coordinate) and inside its shape.
                SPARCH_ASSERT(emitted_ == 0 || e.coord > last_coord_,
                              "final stream not strictly sorted");
                SPARCH_ASSERT(coordRow(e.coord) < rows_ &&
                                  coordCol(e.coord) < cols_,
                              "final stream coordinate out of range");
            }
            if (capture_)
                captured_.push_back(e);
            last_coord_ = e.coord;
            ++emitted_;
            ++pending_;
        }
        --width;
    }
    const bool drained_any = width < config_->mergeTree.mergerWidth;
    if (drained_any)
        ++busy_cycles_;

    // Write a full burst, or flush the tail once the tree is done.
    // The burst can never exceed the FIFO, or draining would stop
    // before a burst completes.
    const std::size_t burst =
        std::min(config_->writerBurst, config_->writerFifo);
    if (pending_ >= burst) {
        writeBurst(burst, now);
        return true;
    }
    if (pending_ > 0 && tree_->done() && !tree_->rootHasData()) {
        writeBurst(pending_, now);
        if (final_round_ && rowptr_bytes_ > 0) {
            // CSR conversion also emits the row-pointer array.
            last_write_done_ = std::max(
                last_write_done_,
                mem_->write(DramStream::FinalWrite,
                            base_addr_ + rowptr_bytes_, rowptr_bytes_,
                            now));
        }
        return true;
    }
    return drained_any;
}

void
PartialMatrixWriter::recordStats(StatSet &stats) const
{
    stats.set("writer.additions", static_cast<double>(additions_));
    stats.set("writer.bursts", static_cast<double>(bursts_));
    stats.set("writer.busy_cycles", static_cast<double>(busy_cycles_));
}

} // namespace sparch
