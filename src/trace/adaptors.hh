/**
 * @file
 * Stream adaptors: take/skip prefixes (the paper fast-forwards 2B
 * instructions and simulates 1B) and deterministic interleaving of
 * multiple streams.
 */

#ifndef TLBPF_TRACE_ADAPTORS_HH
#define TLBPF_TRACE_ADAPTORS_HH

#include <memory>
#include <vector>

#include "trace/ref_stream.hh"

namespace tlbpf
{

/** Yields at most @p limit references from the underlying stream. */
class TakeStream : public RefStream
{
  public:
    TakeStream(std::unique_ptr<RefStream> inner, std::uint64_t limit);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

  private:
    std::unique_ptr<RefStream> _inner;
    std::uint64_t _limit;
    std::uint64_t _taken = 0;
};

/** Discards the first @p count references (fast-forward). */
class SkipStream : public RefStream
{
  public:
    SkipStream(std::unique_ptr<RefStream> inner, std::uint64_t count);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

  private:
    void ensureSkipped();

    std::unique_ptr<RefStream> _inner;
    std::uint64_t _count;
    bool _skipped = false;
};

/**
 * Round-robin interleaving of several streams with per-stream weights
 * (stream i contributes weight[i] consecutive references per round).
 * Ends when every inner stream is exhausted.
 */
class InterleaveStream : public RefStream
{
  public:
    InterleaveStream(std::vector<std::unique_ptr<RefStream>> inners,
                     std::vector<std::uint32_t> weights);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

  private:
    void advanceCursor();

    std::vector<std::unique_ptr<RefStream>> _inners;
    std::vector<std::uint32_t> _weights;
    std::vector<bool> _done;
    std::size_t _cursor = 0;
    std::uint32_t _emitted = 0;
};

/** Concatenates streams back to back. */
class ConcatStream : public RefStream
{
  public:
    explicit ConcatStream(std::vector<std::unique_ptr<RefStream>> inners);

    bool next(MemRef &ref) override;
    std::size_t nextBatch(MemRef *buf, std::size_t n) override;
    std::size_t nextRuns(PageRun *buf, std::size_t n,
                         std::uint64_t page_bytes,
                         std::uint64_t max_refs) override;
    void reset() override;
    std::string describe() const override;

  private:
    std::vector<std::unique_ptr<RefStream>> _inners;
    std::size_t _cursor = 0;
};

} // namespace tlbpf

#endif // TLBPF_TRACE_ADAPTORS_HH
