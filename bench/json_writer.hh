/**
 * @file
 * Minimal JSON emitter shared by the bench harness.
 *
 * Backs bench::writeEntry (bench_common.hh), the one writer of the
 * BENCH_simulator.json trajectory entries. Deliberately write-only:
 * objects and arrays are streamed in construction order, strings are
 * escaped, and doubles round-trip (max_digits10) so a checked-in
 * trajectory diff is meaningful.
 */

#ifndef SPARCH_BENCH_JSON_WRITER_HH
#define SPARCH_BENCH_JSON_WRITER_HH

#include <limits>
#include <sstream>
#include <string>
#include <vector>

namespace sparch
{
namespace bench
{

/** Streaming JSON writer; emits one value tree into a string. */
class JsonWriter
{
  public:
    JsonWriter() { out_.precision(std::numeric_limits<double>::max_digits10); }

    void
    beginObject()
    {
        comma();
        out_ << '{';
        first_.push_back(true);
    }

    void
    endObject()
    {
        out_ << '}';
        first_.pop_back();
    }

    void
    beginArray()
    {
        comma();
        out_ << '[';
        first_.push_back(true);
    }

    void
    endArray()
    {
        out_ << ']';
        first_.pop_back();
    }

    /** Emit `"name":` inside the current object. */
    void
    key(const std::string &name)
    {
        comma();
        string(name);
        out_ << ':';
        // The value that follows must not emit its own comma.
        pending_value_ = true;
    }

    void
    value(const std::string &v)
    {
        comma();
        string(v);
    }

    void
    value(double v)
    {
        comma();
        out_ << v;
    }

    void
    value(unsigned v)
    {
        comma();
        out_ << v;
    }

    /** Convenience: key + scalar value in one call. */
    template <typename T>
    void
    field(const std::string &name, const T &v)
    {
        key(name);
        value(v);
    }

    std::string str() const { return out_.str(); }

  private:
    void
    comma()
    {
        if (pending_value_) {
            pending_value_ = false;
            return;
        }
        if (!first_.empty()) {
            if (!first_.back())
                out_ << ',';
            first_.back() = false;
        }
    }

    void
    string(const std::string &s)
    {
        out_ << '"';
        for (const char c : s) {
            switch (c) {
            case '"':
                out_ << "\\\"";
                break;
            case '\\':
                out_ << "\\\\";
                break;
            case '\n':
                out_ << "\\n";
                break;
            case '\r':
                out_ << "\\r";
                break;
            case '\t':
                out_ << "\\t";
                break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    out_ << "\\u00" << "0123456789abcdef"[(c >> 4) & 0xf]
                         << "0123456789abcdef"[c & 0xf];
                } else {
                    out_ << c;
                }
            }
        }
        out_ << '"';
    }

    std::ostringstream out_;
    std::vector<bool> first_;
    bool pending_value_ = false;
};

} // namespace bench
} // namespace sparch

#endif // SPARCH_BENCH_JSON_WRITER_HH
