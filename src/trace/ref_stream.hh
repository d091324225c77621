/**
 * @file
 * Memory-reference records and the pull-based stream abstraction that
 * feeds the simulators.
 *
 * The paper drives its evaluation with the data-reference streams of 56
 * applications (SimpleScalar sim-cache for SPEC, Shade for the rest).
 * Here a reference stream is anything implementing RefStream: synthetic
 * workload generators, in-memory vectors, or binary trace files.
 *
 * Page runs.  Every mechanism sits behind the TLB, so a reference that
 * stays on the page of the one before it is a TLB hit whose only
 * effect is recency.  RefStream::nextRuns() hands such stretches to
 * the functional simulators as one PageRun {vpn, PC of the first
 * reference, count}, which costs one TLB probe instead of count.  The
 * contract:
 *
 *   - Runs need not be maximal.  Two adjacent runs on one page
 *     simulate exactly like one run (the second is all hits), so a
 *     stream may split a run wherever it is convenient, for instance
 *     at the end of a dwell step or of an interleaving quantum.
 *   - max_refs bounds the references delivered, summed over the runs,
 *     so callers can stop exactly at a shard window, a take limit or
 *     a context switch (the reference after a flush misses, and the
 *     mechanism must see that reference's own PC).
 *   - The expansion of the runs is the nextBatch() page sequence, and
 *     the two calls interleave freely: after k references the stream
 *     is at the same position whichever call delivered them.
 *
 * The base implementation coalesces nextBatch() output; it serves
 * trace files, mixes, vectors and page sizes that are not a power of
 * two of at least 4 KiB.  The six synthetic generators emit one run
 * per dwell step or page crossing natively (their RNG draws are
 * unchanged), and Take/Skip/Interleave/Concat/Pace pass their
 * budgets down as max_refs.  Only the PC of a run's first reference
 * survives, so two consumers stay per reference: a mechanism that
 * trains on TLB hits (SimConfig::trainOnAllRefs) sees every
 * reference's PC, and the timing model charges every reference's
 * instruction gap.
 */

#ifndef TLBPF_TRACE_REF_STREAM_HH
#define TLBPF_TRACE_REF_STREAM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/bits.hh"

namespace tlbpf
{

/** Virtual address type. */
using Addr = std::uint64_t;

/** Virtual page number type. */
using Vpn = std::uint64_t;

/** Default page size used throughout the paper's evaluation. */
constexpr std::uint64_t kDefaultPageBytes = 4096;

/** One data memory reference. */
struct MemRef
{
    Addr vaddr = 0;      ///< virtual byte address referenced
    Addr pc = 0;         ///< program counter of the access instruction
    bool isWrite = false;///< load vs store
    /**
     * Dynamic instruction count at this reference; lets the timing
     * model convert a reference stream back into instruction counts.
     */
    std::uint64_t icount = 0;

    /** Virtual page number under the given page size. */
    Vpn
    vpn(std::uint64_t page_bytes = kDefaultPageBytes) const
    {
        return vaddr / page_bytes;
    }

    bool operator==(const MemRef &other) const = default;
};

/** pageShiftOf() of a page size that is not a power of two. */
constexpr std::uint32_t kNoPageShift = UINT32_MAX;

/** log2(@p page_bytes) when it is a power of two, else kNoPageShift. */
constexpr std::uint32_t
pageShiftOf(std::uint64_t page_bytes)
{
    return isPowerOfTwo(page_bytes) ? floorLog2(page_bytes)
                                    : kNoPageShift;
}

/** Page of @p vaddr, where @p shift == pageShiftOf(@p page_bytes). */
inline Vpn
pageNumber(Addr vaddr, std::uint32_t shift, std::uint64_t page_bytes)
{
    // The paper's page sizes are powers of two, so the hot path is a
    // shift; the division is kept for exotic configs.
    return shift != kNoPageShift ? vaddr >> shift : vaddr / page_bytes;
}

/** Consecutive references that all stay on one page. */
struct PageRun
{
    Vpn vpn = 0;             ///< page every reference of the run touches
    Addr pc = 0;             ///< PC of the run's first reference
    std::uint64_t count = 0; ///< references in the run (>= 1)
};

/** References held by @p runs[0, @p n). */
inline std::uint64_t
runRefs(const PageRun *runs, std::size_t n)
{
    std::uint64_t refs = 0;
    for (std::size_t i = 0; i < n; ++i)
        refs += runs[i].count;
    return refs;
}

/**
 * The bookkeeping every nextRuns() implementation shares: appends
 * runs to the caller's buffer within its run and reference budgets,
 * extending the last run when the next one is on the same page.
 */
class RunFill
{
  public:
    RunFill(PageRun *buf, std::size_t n, std::uint64_t max_refs)
        : _buf(buf), _n(n), _room(max_refs)
    {
    }

    /** No run slot or no reference budget left. */
    bool full() const { return _filled == _n || _room == 0; }
    std::size_t filled() const { return _filled; }
    std::size_t freeSlots() const { return _n - _filled; }
    std::uint64_t room() const { return _room; }

    /** Append @p count (<= room()) references to @p vpn. */
    void
    add(Vpn vpn, Addr pc, std::uint64_t count)
    {
        if (_filled > 0 && _buf[_filled - 1].vpn == vpn)
            _buf[_filled - 1].count += count;
        else
            _buf[_filled++] = PageRun{vpn, pc, count};
        _room -= count;
    }

  private:
    PageRun *_buf;
    std::size_t _n;
    std::size_t _filled = 0;
    std::uint64_t _room;
};

/**
 * Pull-based reference stream.
 *
 * next() fills @p ref and returns true, or returns false at end of
 * stream.  Streams are single-pass; use reset() to rewind when the
 * concrete stream supports it (all synthetic generators do).
 *
 * nextBatch() is the bulk form the per-reference consumers use: it
 * fills a caller-owned flat buffer so the per-reference cost is one
 * array iteration, not one virtual call.  The functional simulators
 * pull nextRuns() instead (see the file comment).  The two forms are interchangeable
 * mid-stream — a batch picks up exactly where next() left off and
 * vice versa.
 */
class RefStream
{
  public:
    virtual ~RefStream() = default;

    /** Produce the next reference; false at end of stream. */
    virtual bool next(MemRef &ref) = 0;

    /**
     * Fill up to @p n entries of @p buf; returns how many were
     * produced, 0 at end of stream.  Semantically identical to
     * calling next() @p n times (the base implementation does exactly
     * that); concrete streams override it with devirtualised
     * flat-buffer fills.  A short count (< @p n) is returned only at
     * end of stream, so callers may loop on `nextBatch(...) > 0`.
     */
    virtual std::size_t nextBatch(MemRef *buf, std::size_t n);

    /**
     * Fill up to @p n entries of @p buf with the page runs (pages of
     * @p page_bytes) of at most @p max_refs further references;
     * returns how many runs were written.  Fewer than @p n runs
     * holding fewer than @p max_refs references are returned only at
     * end of stream.  See the file comment for the run contract; the
     * base implementation coalesces nextBatch() output.
     */
    virtual std::size_t nextRuns(PageRun *buf, std::size_t n,
                                 std::uint64_t page_bytes,
                                 std::uint64_t max_refs);

    /** Rewind to the beginning (regenerates identically). */
    virtual void reset() = 0;

    /** Short human-readable description for logs. */
    virtual std::string describe() const = 0;
};

/** Stream over an in-memory vector of references. */
class VectorStream : public RefStream
{
  public:
    explicit VectorStream(std::vector<MemRef> refs);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    void reset() override { _pos = 0; }
    std::string describe() const override;

    std::size_t size() const { return _refs.size(); }

  private:
    std::vector<MemRef> _refs;
    std::size_t _pos = 0;
};

/**
 * Fast-forward @p stream by @p count references without producing
 * them (pulled as page runs and dropped); returns how many were
 * skipped, fewer than @p count only at end of stream.
 */
std::uint64_t skipRefs(RefStream &stream, std::uint64_t count);

/** Drain a stream into a vector (testing convenience). */
std::vector<MemRef> collect(RefStream &stream,
                            std::size_t max_refs = SIZE_MAX);

/** Count the distinct pages touched by a stream (consumes it). */
std::uint64_t distinctPages(RefStream &stream,
                            std::uint64_t page_bytes = kDefaultPageBytes);

} // namespace tlbpf

#endif // TLBPF_TRACE_REF_STREAM_HH
