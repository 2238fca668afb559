/**
 * @file
 * Fundamental scalar types shared across the SpArch code base.
 *
 * The paper (Table I) uses 32-bit row and column indices, 64-bit packed
 * coordinates inside the merge tree, and IEEE double-precision values.
 * Those choices are mirrored here so byte accounting matches the paper's
 * 12-bytes-per-element figure (4-byte index + 8-byte value in DRAM
 * streams) and the 64-bit on-chip coordinate.
 */

#ifndef SPARCH_COMMON_TYPES_HH
#define SPARCH_COMMON_TYPES_HH

// The code base relies on C++20 (std::span in matrix/csr.hh,
// std::bit_width in core/row_prefetcher.cc, defaulted comparisons).
// Fail here with a clear message instead of pages of template errors
// deep inside the first <span> use. MSVC keeps __cplusplus at 199711L
// unless /Zc:__cplusplus is passed, so check _MSVC_LANG too.
#if !(__cplusplus >= 202002L ||                                       \
      (defined(_MSVC_LANG) && _MSVC_LANG >= 202002L))
#error "sparch requires C++20; compile with -std=c++20 or newer"
#endif

#include <cstdint>

namespace sparch
{

/** Row or column index of a sparse matrix (32-bit, per Table I). */
using Index = std::uint32_t;

/** Signed variant used where -1 sentinels are convenient. */
using SIndex = std::int64_t;

/** Matrix element value; the paper evaluates in double precision. */
using Value = double;

/** Simulation time in clock cycles (1 GHz clock in the paper). */
using Cycle = std::uint64_t;

/** Byte counts for DRAM traffic accounting. */
using Bytes = std::uint64_t;

/**
 * Packed 64-bit coordinate used by the merge tree: row in the upper 32
 * bits, column in the lower 32 bits. Ordering of the packed integer is
 * exactly (row, column) lexicographic order, which is the sort order of
 * partial matrices in the paper (Section II-A).
 */
using Coord = std::uint64_t;

/** Pack a (row, column) pair into a merge-tree coordinate. */
constexpr Coord
packCoord(Index row, Index col)
{
    return (static_cast<Coord>(row) << 32) | static_cast<Coord>(col);
}

/** Extract the row from a packed coordinate. */
constexpr Index
coordRow(Coord c)
{
    return static_cast<Index>(c >> 32);
}

/** Extract the column from a packed coordinate. */
constexpr Index
coordCol(Coord c)
{
    return static_cast<Index>(c & 0xffffffffULL);
}

/**
 * One streaming element inside the accelerator: a packed coordinate plus
 * a double value. This is the unit the mergers, FIFOs and DRAM streams
 * operate on. DRAM storage cost is modelled as 12 bytes (Table I: 12
 * bytes per element in the prefetch buffer) even though the in-simulator
 * struct is 16 bytes.
 */
struct StreamElement
{
    Coord coord = 0;
    Value value = 0.0;

    friend bool
    operator==(const StreamElement &a, const StreamElement &b)
    {
        return a.coord == b.coord && a.value == b.value;
    }

    friend bool
    operator<(const StreamElement &a, const StreamElement &b)
    {
        return a.coord < b.coord;
    }
};

/** DRAM storage footprint of one stream element (paper: 12 bytes). */
constexpr Bytes bytesPerElement = 12;

/** DRAM storage footprint of one CSR row-pointer entry. */
constexpr Bytes bytesPerRowPtr = 4;

} // namespace sparch

#endif // SPARCH_COMMON_TYPES_HH
