/**
 * @file
 * In-memory span recorder for the traced run.  Spans are recorded by
 * the benchmark around its own calls into the library; nothing inside
 * the library is instrumented.  A span's parent is the span open on
 * the same thread when it began; spans of one request share the
 * request id.  SpannedStream wraps any RefStream so that stream
 * generation shows up as child spans of whatever consumes it.
 */

#ifndef PERFBENCH_TRACER_HH
#define PERFBENCH_TRACER_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bench_math.hh"
#include "trace/ref_stream.hh"

namespace perfbench
{

/** Monotonic nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Span
{
    std::string name;
    std::uint64_t id = 0;      ///< 1-based; 0 means "no span"
    std::uint64_t parent = 0;
    std::uint64_t request = 0; ///< shared by the spans of one request
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

class Tracer
{
  public:
    /** Open a span; returns its id (0 when @p tracer is null). */
    std::uint64_t begin(const std::string &name,
                        std::uint64_t request = 0);
    void end(std::uint64_t id);

    /** Duration of span @p id in ns. */
    std::int64_t durationNs(std::uint64_t id) const;

    /** Duration minus the union of its children (bench_math selfTime). */
    std::int64_t selfNs(std::uint64_t id) const;

    std::size_t size() const;

    /** Write every span as one JSON object per line. */
    void writeJsonl(const std::string &path) const;

  private:
    mutable std::mutex _mutex;
    std::vector<Span> _spans; // index = id - 1
    mutable std::vector<std::vector<std::uint64_t>> _children;
    mutable std::size_t _indexed = 0;
};

/** RAII span; a null tracer makes it free. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer *tracer, const std::string &name,
               std::uint64_t request = 0)
        : _tracer(tracer),
          _id(tracer ? tracer->begin(name, request) : 0)
    {
    }
    ~ScopedSpan() { close(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void
    close()
    {
        if (_tracer && _id) {
            _tracer->end(_id);
            _id = 0;
        }
    }
    std::uint64_t id() const { return _id; }

  private:
    Tracer *_tracer;
    std::uint64_t _id;
};

/**
 * RefStream decorator: every refill from the inner stream is a
 * "stream" child span, so a consumer's self time excludes the cost of
 * producing its references.  Per-reference next() calls are served
 * from a block buffer, so a consumer that pulls one reference at a
 * time (the timing model) is charged one span per block, not one per
 * reference.
 */
class SpannedStream : public tlbpf::RefStream
{
  public:
    SpannedStream(Tracer *tracer, std::unique_ptr<tlbpf::RefStream> inner)
        : _tracer(tracer), _inner(std::move(inner)), _buf(kBlock)
    {
    }

    bool
    next(tlbpf::MemRef &ref) override
    {
        if (_pos == _len) {
            ScopedSpan span(_tracer, "stream");
            _len = _inner->nextBatch(_buf.data(), _buf.size());
            _pos = 0;
            if (_len == 0)
                return false;
        }
        ref = _buf[_pos++];
        return true;
    }

    std::size_t
    nextBatch(tlbpf::MemRef *buf, std::size_t n) override
    {
        std::size_t got = 0;
        while (got < n && _pos < _len)
            buf[got++] = _buf[_pos++];
        if (got < n) {
            ScopedSpan span(_tracer, "stream");
            got += _inner->nextBatch(buf + got, n - got);
        }
        return got;
    }

    void
    reset() override
    {
        _pos = _len = 0;
        _inner->reset();
    }

    std::string describe() const override { return _inner->describe(); }

  private:
    static constexpr std::size_t kBlock = 4096;

    Tracer *_tracer;
    std::unique_ptr<tlbpf::RefStream> _inner;
    std::vector<tlbpf::MemRef> _buf;
    std::size_t _pos = 0;
    std::size_t _len = 0;
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_HH
