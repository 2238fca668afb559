/**
 * @file
 * Multi-word bitmask with a round-robin run scan.
 *
 * The per-cycle port scans (multiplier, column fetchers) keep one bit
 * per port, for trees of up to 2^16 leaves, and jump over runs of
 * ports that cannot make progress a 64-bit word at a time instead of
 * visiting them one by one; wrappedCount() tallies, per stall cause,
 * how many ports of such a run a one-by-one scan would have counted.
 */

#ifndef SPARCH_COMMON_BIT_MASK_HH
#define SPARCH_COMMON_BIT_MASK_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sparch
{

/** A fixed-width bitmask, one bit per port or leaf. */
class BitMask
{
  public:
    /** Resize to `bits` bits, all clear (reuses capacity). */
    void
    resize(std::size_t bits)
    {
        words_.assign((bits + 63) / 64, 0);
    }

    /** Clear every bit, keeping the width. */
    void clearAll() { std::fill(words_.begin(), words_.end(), 0); }

    bool
    test(std::size_t i) const
    {
        return (words_[i >> 6] >> (i & 63)) & 1;
    }

    void set(std::size_t i) { words_[i >> 6] |= bit(i); }

    void clear(std::size_t i) { words_[i >> 6] &= ~bit(i); }

    void
    assign(std::size_t i, bool value)
    {
        if (value)
            set(i);
        else
            clear(i);
    }

    /** Clear every bit that is set in `other` (same width). */
    void
    clearBits(const BitMask &other)
    {
        for (std::size_t w = 0; w < words_.size(); ++w)
            words_[w] &= ~other.words_[w];
    }

    /** Word `w` holds bits [64w, 64w + 64). */
    std::uint64_t word(std::size_t w) const { return words_[w]; }

    std::size_t words() const { return words_.size(); }

  private:
    static std::uint64_t
    bit(std::size_t i)
    {
        return std::uint64_t{1} << (i & 63);
    }

    std::vector<std::uint64_t> words_;
};

/**
 * Length of the run of set bits that starts at bit `start`, walking
 * bits in round-robin order over [0, n) (wrapping from n-1 to 0) and
 * stopping after at most `limit` bits. `word(w)` yields word w of the
 * mask; its bits at or past n are ignored.
 */
template <typename WordFn>
unsigned
wrappedRun(WordFn word, unsigned start, unsigned n, unsigned limit)
{
    unsigned run = 0;
    unsigned i = start;
    while (run < limit) {
        const unsigned shift = i & 63;
        const unsigned avail =
            std::min({64 - shift, n - i, limit - run});
        const auto ones = static_cast<unsigned>(
            std::countr_one(word(i >> 6) >> shift));
        const unsigned k = std::min(ones, avail);
        run += k;
        if (k < avail)
            break;
        i += k;
        if (i == n)
            i = 0;
    }
    return run;
}

/**
 * Number of set bits among the `len` bits that start at bit `start`,
 * walking bits in the same round-robin order as wrappedRun(). `len`
 * must not exceed n.
 */
template <typename WordFn>
unsigned
wrappedCount(WordFn word, unsigned start, unsigned n, unsigned len)
{
    unsigned count = 0;
    unsigned i = start;
    while (len > 0) {
        const unsigned shift = i & 63;
        const unsigned take = std::min({64 - shift, n - i, len});
        std::uint64_t bits = word(i >> 6) >> shift;
        if (take < 64)
            bits &= (std::uint64_t{1} << take) - 1;
        count += static_cast<unsigned>(std::popcount(bits));
        len -= take;
        i += take;
        if (i == n)
            i = 0;
    }
    return count;
}

} // namespace sparch

#endif // SPARCH_COMMON_BIT_MASK_HH
