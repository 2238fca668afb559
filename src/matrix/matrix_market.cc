#include "matrix/matrix_market.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/logging.hh"

namespace sparch
{

namespace
{

/** Lower-case a token in place (the MM spec is case-insensitive). */
std::string
lowered(std::string s)
{
    for (char &c : s)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return s;
}

/** True for empty and whitespace-only lines (including a lone '\r'). */
bool
isBlank(const std::string &line)
{
    for (char c : line) {
        if (!std::isspace(static_cast<unsigned char>(c)))
            return false;
    }
    return true;
}

/** Entries reserved up front when the stream's length is unknown. */
constexpr std::uint64_t kUnsizedReserve = 1 << 20;

/** Bytes from the stream's position to its end, or -1 if unseekable. */
std::streamoff
remainingBytes(std::istream &in)
{
    const std::streampos here = in.tellg();
    if (here == std::streampos(-1))
        return -1;
    in.seekg(0, std::ios::end);
    const std::streampos end = in.tellg();
    in.clear();
    in.seekg(here);
    return end == std::streampos(-1) ? -1 : end - here;
}

// Entry-line tokenizer. Lines are parsed with std::from_chars:
// blank lines are skipped, '\r' line endings are tolerated, a line
// may carry several entries, but one entry may not span lines.

/** One parsed coordinate entry, still 1-based as in the file. */
struct Entry {
    std::uint64_t row = 0;
    std::uint64_t col = 0;
    double value = 1.0;
};

bool
isSpace(char c)
{
    return c == ' ' || c == '\t' || c == '\r' || c == '\f' || c == '\v';
}

const char *
skipSpace(const char *p, const char *end)
{
    while (p != end && isSpace(*p))
        ++p;
    return p;
}

/** Parse one unsigned decimal token; advances p past it on success. */
bool
parseU64(const char *&p, const char *end, std::uint64_t &out)
{
    const auto [next, ec] = std::from_chars(p, end, out);
    if (ec != std::errc() || next == p)
        return false;
    p = next;
    return true;
}

/**
 * Parse one floating-point token; advances p past it on success.
 * istream extraction accepted an explicit leading '+', which
 * from_chars does not, so strip it here.
 */
bool
parseDouble(const char *&p, const char *end, double &out)
{
    const char *q = p;
    if (q != end && *q == '+')
        ++q;
    const auto [next, ec] = std::from_chars(q, end, out);
    if (ec != std::errc() || next == q)
        return false;
    p = next;
    return true;
}

/**
 * Parse every entry on one line [begin, end) (no trailing '\n').
 * Pattern files carry no value token; entries get value 1.0.
 *
 * Returns the number of entries appended to `out`, 0 for a blank
 * line, or -1 if the line is malformed (stray characters, missing
 * value, partial entry).
 */
int
parseLine(const char *begin, const char *end, bool pattern,
          std::vector<Entry> &out)
{
    const char *p = skipSpace(begin, end);
    int parsed = 0;
    while (p != end) {
        Entry e;
        if (!parseU64(p, end, e.row))
            return -1;
        p = skipSpace(p, end);
        if (!parseU64(p, end, e.col))
            return -1;
        if (!pattern) {
            p = skipSpace(p, end);
            if (!parseDouble(p, end, e.value))
                return -1;
        }
        // A token must end at whitespace or end-of-line; "1 2 3x" is
        // corrupt, not an entry followed by junk.
        if (p != end && !isSpace(*p))
            return -1;
        out.push_back(e);
        ++parsed;
        p = skipSpace(p, end);
    }
    return parsed;
}

/**
 * Split [begin, end) into lines and parse each through parseLine.
 * Returns the number of entries appended, or -(offset+1) of the start
 * of the first malformed line.
 */
std::int64_t
parseChunk(const char *begin, const char *end, bool pattern,
           std::vector<Entry> &out)
{
    std::int64_t parsed = 0;
    const char *line = begin;
    while (line < end) {
        const char *nl = line;
        while (nl != end && *nl != '\n')
            ++nl;
        const int n = parseLine(line, nl, pattern, out);
        if (n < 0)
            return -static_cast<std::int64_t>(line - begin) - 1;
        parsed += n;
        line = (nl == end) ? end : nl + 1;
    }
    return parsed;
}

} // namespace

MatrixMarketHeader
readMatrixMarketHeader(std::istream &in)
{
    std::string line;
    if (!std::getline(in, line))
        fatal("matrix market: empty input");

    std::istringstream banner(line);
    std::string tag, object, format, field, symmetry;
    banner >> tag >> object >> format >> field >> symmetry;
    if (tag != "%%MatrixMarket")
        fatal("matrix market: missing %%MatrixMarket banner");
    object = lowered(object);
    format = lowered(format);
    field = lowered(field);
    symmetry = lowered(symmetry);
    if (object != "matrix" || format != "coordinate")
        fatal("matrix market: unsupported header '", object, " ", format,
              "'");
    MatrixMarketHeader header;
    if (field == "real")
        header.field = MmField::Real;
    else if (field == "integer")
        header.field = MmField::Integer;
    else if (field == "pattern")
        header.field = MmField::Pattern;
    else
        fatal("matrix market: unsupported field '", field, "'");
    if (symmetry == "general")
        header.symmetry = MmSymmetry::General;
    else if (symmetry == "symmetric")
        header.symmetry = MmSymmetry::Symmetric;
    else
        fatal("matrix market: unsupported symmetry '", symmetry, "'");

    // Skip comments and blank lines: SuiteSparse dumps routinely leave
    // an empty line between the comment block and the size line.
    do {
        if (!std::getline(in, line))
            fatal("matrix market: missing size line");
    } while (isBlank(line) || line[0] == '%');

    std::istringstream size_line(line);
    if (!(size_line >> header.rows >> header.cols >> header.entries))
        fatal("matrix market: malformed size line '", line, "'");

    // Dimensions are parsed as 64-bit; anything wider than Index would
    // silently wrap when the matrix is built, so refuse it here. Entry
    // coordinates are bounded by the dimensions, so this one check
    // makes every later static_cast<Index> safe.
    constexpr std::uint64_t index_max = std::numeric_limits<Index>::max();
    if (header.rows > index_max || header.cols > index_max) {
        fatal("matrix market: dimensions ", header.rows, " x ",
              header.cols, " exceed the ", index_max,
              " limit of 32-bit indices");
    }
    // Coordinate format stores each position at most once, so a
    // declared entry count beyond rows x cols is a corrupt size line;
    // catching it here keeps a later reserve() from aborting on an
    // exabyte allocation. rows and cols both fit 32 bits, so the
    // product cannot overflow 64.
    if (header.entries > header.rows * header.cols) {
        fatal("matrix market: size line declares ", header.entries,
              " entries for a ", header.rows, " x ", header.cols,
              " matrix");
    }
    return header;
}

CsrMatrix
readMatrixMarket(std::istream &in)
{
    const MatrixMarketHeader header = readMatrixMarketHeader(in);
    const std::uint64_t rows = header.rows;
    const std::uint64_t cols = header.cols;

    CooMatrix coo(static_cast<Index>(rows), static_cast<Index>(cols));
    const bool symmetric = header.symmetry == MmSymmetry::Symmetric;
    // Reserve no more than the input can hold: an entry line takes at
    // least 4 bytes ("1 1\n"), so a size line that declares more than
    // the rest of the stream can carry does not turn into one giant
    // up-front reserve. Past the reserve the vector grows as entries
    // actually arrive, and a lying size line fails cleanly at
    // "truncated at entry".
    const std::streamoff left = remainingBytes(in);
    const std::uint64_t can_hold =
        left < 0 ? kUnsizedReserve : static_cast<std::uint64_t>(left) / 4;
    const std::uint64_t lines = std::min(header.entries, can_hold);
    coo.triplets().reserve(symmetric ? lines * 2 : lines);

    // Buffered from_chars tokenizing (parseChunk). Entries are
    // line-oriented: a line may carry several, one may not span
    // lines, and every data line must parse — a trailing region of
    // junk is an error, not ignored.
    const bool pattern = header.field == MmField::Pattern;
    std::vector<char> buf(1 << 16);
    std::vector<Entry> entries;
    std::size_t carry = 0;
    std::uint64_t seen = 0;
    bool eof = false;
    while (!eof) {
        const std::size_t want = buf.size() - carry;
        in.read(buf.data() + carry, static_cast<std::streamsize>(want));
        const std::size_t got = static_cast<std::size_t>(in.gcount());
        const std::size_t total = carry + got;
        eof = got < want;
        std::size_t cut = total;
        if (!eof) {
            while (cut > 0 && buf[cut - 1] != '\n')
                --cut;
            if (cut == 0) {
                // One line overflows the buffer; grow and keep
                // reading — the in-memory reader has no reason to cap
                // line length.
                carry = total;
                buf.resize(buf.size() * 2);
                continue;
            }
        }
        entries.clear();
        if (parseChunk(buf.data(), buf.data() + cut, pattern,
                               entries) < 0)
            fatal("matrix market: malformed entry line after entry ", seen);
        for (const Entry &e : entries) {
            if (e.row < 1 || e.row > rows || e.col < 1 || e.col > cols) {
                fatal("matrix market: entry ", seen, " coordinate (", e.row,
                      ",", e.col, ") out of range");
            }
            const Index ri = static_cast<Index>(e.row - 1);
            const Index ci = static_cast<Index>(e.col - 1);
            coo.add(ri, ci, e.value);
            if (symmetric && ri != ci)
                coo.add(ci, ri, e.value);
            ++seen;
        }
        std::memmove(buf.data(), buf.data() + cut, total - cut);
        carry = total - cut;
    }
    if (seen < header.entries)
        fatal("matrix market: truncated at entry ", seen, " (size line ",
              "declares ", header.entries, ")");
    if (seen > header.entries)
        fatal("matrix market: size line declares ", header.entries,
              " entries but the file contains ", seen);
    return CsrMatrix::fromCoo(std::move(coo), /*drop_zeros=*/true);
}

CsrMatrix
readMatrixMarketFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        fatal("matrix market: cannot open '", path, "'");
    try {
        return readMatrixMarket(in);
    } catch (const FatalError &e) {
        // Name the file in every parse error: "matrix market: 'p': ...".
        constexpr std::string_view kTag = "matrix market: ";
        std::string detail = fatalDetail(e);
        if (detail.starts_with(kTag))
            detail.erase(0, kTag.size());
        fatal("matrix market: '", path, "': ", detail);
    }
}

void
writeMatrixMarket(const CsrMatrix &m, std::ostream &out)
{
    out << "%%MatrixMarket matrix coordinate real general\n";
    out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
    // Entries go through std::to_chars into one buffer that is written
    // out in large blocks. chars_format::general at precision 17 is
    // defined as printf's %.17g: the bytes an ostream at
    // setprecision(17) writes, without its per-insertion cost.
    std::vector<char> buf(1 << 16);
    char *p = buf.data();
    char *const end = buf.data() + buf.size();
    // Two 10-digit indices, a 24-character value and three separators.
    constexpr std::ptrdiff_t kLineMax = 10 + 1 + 10 + 1 + 24 + 1;
    for (Index r = 0; r < m.rows(); ++r) {
        auto cols = m.rowCols(r);
        auto vals = m.rowVals(r);
        for (std::size_t i = 0; i < cols.size(); ++i) {
            if (end - p < kLineMax) {
                out.write(buf.data(), p - buf.data());
                p = buf.data();
            }
            p = std::to_chars(p, end, std::uint64_t{r} + 1).ptr;
            *p++ = ' ';
            p = std::to_chars(p, end, std::uint64_t{cols[i]} + 1).ptr;
            *p++ = ' ';
            p = std::to_chars(p, end, vals[i], std::chars_format::general,
                              17)
                    .ptr;
            *p++ = '\n';
        }
    }
    out.write(buf.data(), p - buf.data());
}

void
writeMatrixMarketFile(const CsrMatrix &m, const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        fatal("matrix market: cannot open '", path, "' for writing");
    writeMatrixMarket(m, out);
}

} // namespace sparch
