/**
 * @file
 * Tests for the common substrate: types, logging, RNG, stats, table
 * printing.
 */

#include <sstream>

#include <gtest/gtest.h>

#include "common/bit_mask.hh"
#include "common/logging.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table_printer.hh"
#include "common/types.hh"

namespace sparch
{
namespace
{

TEST(Types, CoordPackingRoundTrips)
{
    EXPECT_EQ(coordRow(packCoord(7, 9)), 7u);
    EXPECT_EQ(coordCol(packCoord(7, 9)), 9u);
    const Index big = 0xfffffffeu;
    EXPECT_EQ(coordRow(packCoord(big, 3)), big);
    EXPECT_EQ(coordCol(packCoord(3, big)), big);
}

TEST(Types, CoordOrderIsRowMajor)
{
    // Packed ordering == (row, col) lexicographic ordering.
    EXPECT_LT(packCoord(1, 999), packCoord(2, 0));
    EXPECT_LT(packCoord(5, 3), packCoord(5, 4));
}

TEST(Logging, PanicAndFatalThrowDistinctTypes)
{
    EXPECT_THROW(panic("boom ", 42), PanicError);
    EXPECT_THROW(fatal("bad input ", "x"), FatalError);
    try {
        fatal("value=", 3, " name=", "abc");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "fatal: value=3 name=abc");
    }
}

TEST(Rng, DeterministicPerSeed)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        differs |= a2.next() != c.next();
    EXPECT_TRUE(differs);
}

TEST(Rng, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        EXPECT_LT(rng.nextBounded(17), 17u);
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
    EXPECT_EQ(rng.nextBounded(0), 0u);
    EXPECT_EQ(rng.nextBounded(1), 0u);
}

TEST(Rng, BoundedIsRoughlyUniform)
{
    Rng rng(99);
    unsigned counts[8] = {};
    const int trials = 80000;
    for (int i = 0; i < trials; ++i)
        ++counts[rng.nextBounded(8)];
    for (unsigned c : counts) {
        EXPECT_GT(c, trials / 8 * 0.9);
        EXPECT_LT(c, trials / 8 * 1.1);
    }
}

TEST(Rng, RangeDoubleRespectsBounds)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.nextDouble(-2.0, 3.0);
        EXPECT_GE(v, -2.0);
        EXPECT_LT(v, 3.0);
    }
}

TEST(BitMask, SetClearAcrossWords)
{
    BitMask m;
    m.resize(130);
    m.set(0);
    m.set(64);
    m.set(129);
    m.assign(63, true);
    EXPECT_TRUE(m.test(0) && m.test(63) && m.test(64) && m.test(129));
    EXPECT_FALSE(m.test(1) || m.test(65) || m.test(128));
    EXPECT_EQ(m.word(2), 2u);
    m.clear(64);
    m.assign(63, false);
    EXPECT_FALSE(m.test(64) || m.test(63));
    m.clearAll();
    for (unsigned w = 0; w < 3; ++w)
        EXPECT_EQ(m.word(w), 0u);
    m.resize(10);
    EXPECT_FALSE(m.test(0));
}

// The word-at-a-time run scan must agree with a bit-by-bit
// round-robin walk for every start, width and limit.
TEST(BitMask, WrappedRunMatchesBitByBitWalk)
{
    Rng rng(7);
    for (const unsigned n : {1u, 3u, 63u, 64u, 65u, 128u, 200u}) {
        for (int trial = 0; trial < 40; ++trial) {
            BitMask m;
            m.resize(n);
            // Dense masks give long runs, sparse ones short runs.
            const double density =
                trial % 4 == 0 ? 1.0 : 0.3 * (trial % 4);
            for (unsigned i = 0; i < n; ++i)
                m.assign(i, rng.nextBool(density));
            const auto word = [&](std::size_t w) { return m.word(w); };
            for (unsigned start = 0; start < n; ++start) {
                const auto limit =
                    1 + static_cast<unsigned>(rng.nextBounded(n));
                unsigned expect = 0;
                while (expect < limit && m.test((start + expect) % n))
                    ++expect;
                ASSERT_EQ(wrappedRun(word, start, n, limit), expect)
                    << "n " << n << " start " << start << " limit "
                    << limit;
            }
        }
    }
}

// The multiplier counts the blocked and pending ports of each skipped
// run with wrappedCount(); it must agree with a bit-by-bit walk over
// wrapped, multi-word and partial-word ranges.
TEST(BitMask, WrappedCountMatchesBitByBitWalk)
{
    Rng rng(11);
    for (const unsigned n : {1u, 3u, 63u, 64u, 65u, 128u, 200u}) {
        for (int trial = 0; trial < 40; ++trial) {
            BitMask m;
            m.resize(n);
            const double density =
                trial % 4 == 0 ? 1.0 : 0.3 * (trial % 4);
            for (unsigned i = 0; i < n; ++i)
                m.assign(i, rng.nextBool(density));
            const auto word = [&](std::size_t w) { return m.word(w); };
            for (unsigned start = 0; start < n; ++start) {
                const auto len =
                    static_cast<unsigned>(rng.nextBounded(n + 1));
                unsigned expect = 0;
                for (unsigned k = 0; k < len; ++k)
                    expect += m.test((start + k) % n) ? 1 : 0;
                ASSERT_EQ(wrappedCount(word, start, n, len), expect)
                    << "n " << n << " start " << start << " len " << len;
            }
        }
    }
}

TEST(Stats, IncSetGet)
{
    StatSet s;
    EXPECT_DOUBLE_EQ(s.get("missing"), 0.0);
    EXPECT_FALSE(s.has("missing"));
    s.inc("counter");
    s.inc("counter", 2.5);
    EXPECT_DOUBLE_EQ(s.get("counter"), 3.5);
    s.set("gauge", 7.0);
    EXPECT_DOUBLE_EQ(s.get("gauge"), 7.0);
    s.set("gauge", 3.0);
    EXPECT_DOUBLE_EQ(s.get("gauge"), 3.0);
    EXPECT_TRUE(s.has("gauge"));
}

TEST(Stats, MergeSumsSharedNames)
{
    StatSet a, b;
    a.set("x", 1.0);
    b.set("x", 2.0);
    b.set("y", 5.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.get("x"), 3.0);
    EXPECT_DOUBLE_EQ(a.get("y"), 5.0);
}

TEST(Stats, DumpIsSortedAndPrefixed)
{
    StatSet s;
    s.set("b", 2.0);
    s.set("a", 1.0);
    std::ostringstream os;
    s.dump(os, "pre.");
    EXPECT_EQ(os.str(), "pre.a = 1\npre.b = 2\n");
}

TEST(TablePrinter, AlignsColumns)
{
    TablePrinter t("title");
    t.header({"aaa", "b"});
    t.row({"c", "dddd"});
    std::ostringstream os;
    t.print(os);
    const std::string out = os.str();
    EXPECT_NE(out.find("== title =="), std::string::npos);
    EXPECT_NE(out.find("aaa"), std::string::npos);
    EXPECT_NE(out.find("dddd"), std::string::npos);
}

TEST(TablePrinter, NumberFormatting)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
    EXPECT_EQ(TablePrinter::sci(12345.0, 1), "1.2e+04");
}

TEST(TablePrinter, GeoMean)
{
    EXPECT_DOUBLE_EQ(geoMean({4.0, 9.0}), 6.0);
    EXPECT_DOUBLE_EQ(geoMean({5.0}), 5.0);
    EXPECT_DOUBLE_EQ(geoMean({}), 0.0);
}

} // namespace
} // namespace sparch
