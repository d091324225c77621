#include "trace/ref_stream.hh"

#include <algorithm>
#include <unordered_set>

namespace tlbpf
{

std::size_t
RefStream::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n && next(buf[filled]))
        ++filled;
    return filled;
}

std::size_t
RefStream::nextRuns(PageRun *buf, std::size_t n, std::uint64_t page_bytes,
                    std::uint64_t max_refs)
{
    const std::uint32_t shift = pageShiftOf(page_bytes);
    MemRef block[256];
    RunFill out(buf, n, max_refs);
    while (!out.full()) {
        // A reference opens at most one run, so pulling no more than
        // the free run slots never strands a reference already taken
        // from the stream.
        std::size_t want = static_cast<std::size_t>(std::min<std::uint64_t>(
            {std::size(block), out.freeSlots(), out.room()}));
        std::size_t got = nextBatch(block, want);
        for (std::size_t i = 0; i < got; ++i)
            out.add(pageNumber(block[i].vaddr, shift, page_bytes),
                    block[i].pc, 1);
        if (got < want)
            break;
    }
    return out.filled();
}

std::uint64_t
skipRefs(RefStream &stream, std::uint64_t count)
{
    PageRun scratch[256];
    std::uint64_t skipped = 0;
    while (skipped < count) {
        std::size_t got = stream.nextRuns(scratch, std::size(scratch),
                                          kDefaultPageBytes,
                                          count - skipped);
        if (got == 0)
            break; // stream shorter than the skip
        skipped += runRefs(scratch, got);
    }
    return skipped;
}

VectorStream::VectorStream(std::vector<MemRef> refs)
    : _refs(std::move(refs))
{
}

bool
VectorStream::next(MemRef &ref)
{
    if (_pos >= _refs.size())
        return false;
    ref = _refs[_pos++];
    return true;
}

std::size_t
VectorStream::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t take = std::min(n, _refs.size() - _pos);
    std::copy_n(_refs.begin() + static_cast<std::ptrdiff_t>(_pos),
                take, buf);
    _pos += take;
    return take;
}

std::string
VectorStream::describe() const
{
    return "vector[" + std::to_string(_refs.size()) + "]";
}

std::vector<MemRef>
collect(RefStream &stream, std::size_t max_refs)
{
    std::vector<MemRef> out;
    MemRef ref;
    while (out.size() < max_refs && stream.next(ref))
        out.push_back(ref);
    return out;
}

std::uint64_t
distinctPages(RefStream &stream, std::uint64_t page_bytes)
{
    std::unordered_set<Vpn> pages;
    MemRef ref;
    while (stream.next(ref))
        pages.insert(ref.vpn(page_bytes));
    return pages.size();
}

} // namespace tlbpf
