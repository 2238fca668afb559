/**
 * @file
 * Partial matrix fetcher and writer (Section II-E, Fig. 10).
 *
 * The fetcher streams previously written partially merged results from
 * DRAM back into merge-tree leaf ports ("It will fetch the requested
 * matrix once the FIFO is near empty"). The writer drains the root of
 * the merge tree into a FIFO (Table I: 1024 elements) and writes DRAM
 * in bursts. The final round's stream is the product in CSR order: the
 * writer checks it and keeps it only for a multiply that builds the
 * product matrix; otherwise it only counts the elements.
 */

#ifndef SPARCH_CORE_PARTIAL_MATRIX_IO_HH
#define SPARCH_CORE_PARTIAL_MATRIX_IO_HH

#include <cstdint>
#include <vector>

#include "core/round_stream.hh"
#include "core/sparch_config.hh"
#include "mem/memory_model.hh"
#include "hw/clocked.hh"
#include "hw/merge_tree.hh"

namespace sparch
{

/** Streams stored partial results into merge-tree leaves. */
class PartialMatrixFetcher final
{
  public:
    PartialMatrixFetcher(const SpArchConfig &config,
                         mem::MemoryModel &mem);

    PartialMatrixFetcher(const PartialMatrixFetcher &) = delete;
    PartialMatrixFetcher &operator=(const PartialMatrixFetcher &) = delete;

    void connectTree(hw::MergeTree *tree) { tree_ = tree; }

    /** Begin a round with the given stored inputs. */
    void startRound(std::vector<StoredInput> inputs);

    /** All stored inputs fully delivered. */
    bool done() const;

    bool clockUpdate(Cycle now);
    void recordStats(StatSet &stats) const;

    /** The earliest landing of an outstanding burst. */
    Cycle nextEventCycle(Cycle now) const;

  private:
    struct InputState
    {
        StoredInput input;
        std::size_t delivered = 0; //!< elements pushed into the leaf
        std::size_t fetched = 0;   //!< elements requested from DRAM
        Cycle burst_ready = 0;     //!< cycle the current burst lands
        std::size_t burst_end = 0; //!< fetched extent of that burst
        bool finished = false;
    };

    const SpArchConfig *config_;
    mem::MemoryModel *mem_;
    hw::MergeTree *tree_ = nullptr;

    std::vector<InputState> inputs_;
    std::uint64_t elements_streamed_ = 0;
};

/** Drains the merge-tree root and writes results to DRAM. */
class PartialMatrixWriter final
{
  public:
    /**
     * @param rows, cols   Shape of the product. Every element of a
     *        final round must lie inside it, strictly after the one
     *        before it; the writer panics otherwise.
     * @param keep_product Capture the final round's stream. When
     *        false, the final round only counts its elements
     *        (emitted()); earlier rounds always capture, since the
     *        next round reads them back.
     */
    PartialMatrixWriter(const SpArchConfig &config,
                        mem::MemoryModel &mem, Index rows, Index cols,
                        bool keep_product);

    PartialMatrixWriter(const PartialMatrixWriter &) = delete;
    PartialMatrixWriter &operator=(const PartialMatrixWriter &) = delete;

    void connectTree(hw::MergeTree *tree) { tree_ = tree; }

    /**
     * Begin a round.
     * @param final_round  Final results are written in CSR, which also
     *        costs the row-pointer bytes (`rowptr_bytes`).
     * @param base_addr    DRAM base address of the output region.
     * @param reserve_hint Expected output size in elements; used to
     *        pre-size the capture vector so it does not reallocate
     *        inside the cycle loop.
     * @param recycle      A spent output buffer whose capacity is
     *        reused for this round's capture (avoids reallocating a
     *        fresh vector every round). A round that does not capture
     *        frees it.
     */
    void startRound(bool final_round, Bytes base_addr,
                    Bytes rowptr_bytes, std::size_t reserve_hint = 0,
                    std::vector<StreamElement> recycle = {});

    /** True once the tree is done and all output has drained by `now`. */
    bool drained(Cycle now) const;

    /**
     * Move the captured output out (end of round): sorted, duplicates
     * combined. Empty for a final round that does not keep the
     * product.
     */
    std::vector<StreamElement> takeCaptured();

    /**
     * Elements this round emitted after coalescing; the captured size
     * whenever the round captures.
     */
    std::size_t emitted() const { return emitted_; }

    bool clockUpdate(Cycle now);
    void recordStats(StatSet &stats) const;

    /**
     * The completion of the last write, while it is still ahead: the
     * round's drained() flips there.
     */
    Cycle
    nextEventCycle(Cycle now) const
    {
        return last_write_done_ >= now ? last_write_done_ : hw::kNoEvent;
    }

    /** Same-coordinate additions performed while draining. */
    std::uint64_t additions() const { return additions_; }

  private:
    void writeBurst(std::size_t elems, Cycle now);

    const SpArchConfig *config_;
    mem::MemoryModel *mem_;
    hw::MergeTree *tree_ = nullptr;

    const Index rows_;
    const Index cols_;
    const bool keep_product_;

    bool final_round_ = false;
    bool capture_ = true;
    Bytes base_addr_ = 0;
    Bytes rowptr_bytes_ = 0;
    std::size_t emitted_ = 0;     //!< elements emitted this round
    std::size_t pending_ = 0;     //!< buffered, not yet written
    Coord last_coord_ = 0;        //!< newest emitted element
    Cycle last_write_done_ = 0;
    std::vector<StreamElement> captured_;

    std::uint64_t additions_ = 0;
    std::uint64_t bursts_ = 0;
    std::uint64_t busy_cycles_ = 0;
};

} // namespace sparch

#endif // SPARCH_CORE_PARTIAL_MATRIX_IO_HH
