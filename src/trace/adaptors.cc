#include "trace/adaptors.hh"

#include <algorithm>

#include "util/logging.hh"

namespace tlbpf
{

TakeStream::TakeStream(std::unique_ptr<RefStream> inner,
                       std::uint64_t limit)
    : _inner(std::move(inner)), _limit(limit)
{
    tlbpf_assert(_inner != nullptr, "TakeStream needs a stream");
}

bool
TakeStream::next(MemRef &ref)
{
    if (_taken >= _limit)
        return false;
    if (!_inner->next(ref))
        return false;
    ++_taken;
    return true;
}

std::size_t
TakeStream::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(n, _limit - _taken));
    std::size_t got = _inner->nextBatch(buf, want);
    _taken += got;
    return got;
}

std::size_t
TakeStream::nextRuns(PageRun *buf, std::size_t n, std::uint64_t page_bytes,
                     std::uint64_t max_refs)
{
    std::size_t got = _inner->nextRuns(
        buf, n, page_bytes, std::min(max_refs, _limit - _taken));
    _taken += runRefs(buf, got);
    return got;
}

void
TakeStream::reset()
{
    _inner->reset();
    _taken = 0;
}

std::string
TakeStream::describe() const
{
    return "take(" + std::to_string(_limit) + ", " + _inner->describe() +
           ")";
}

SkipStream::SkipStream(std::unique_ptr<RefStream> inner,
                       std::uint64_t count)
    : _inner(std::move(inner)), _count(count)
{
    tlbpf_assert(_inner != nullptr, "SkipStream needs a stream");
}

void
SkipStream::ensureSkipped()
{
    if (_skipped)
        return;
    skipRefs(*_inner, _count);
    _skipped = true;
}

bool
SkipStream::next(MemRef &ref)
{
    ensureSkipped();
    return _inner->next(ref);
}

std::size_t
SkipStream::nextBatch(MemRef *buf, std::size_t n)
{
    ensureSkipped();
    return _inner->nextBatch(buf, n);
}

std::size_t
SkipStream::nextRuns(PageRun *buf, std::size_t n, std::uint64_t page_bytes,
                     std::uint64_t max_refs)
{
    ensureSkipped();
    return _inner->nextRuns(buf, n, page_bytes, max_refs);
}

void
SkipStream::reset()
{
    _inner->reset();
    _skipped = false;
}

std::string
SkipStream::describe() const
{
    return "skip(" + std::to_string(_count) + ", " + _inner->describe() +
           ")";
}

InterleaveStream::InterleaveStream(
    std::vector<std::unique_ptr<RefStream>> inners,
    std::vector<std::uint32_t> weights)
    : _inners(std::move(inners)), _weights(std::move(weights))
{
    tlbpf_assert(!_inners.empty(), "InterleaveStream needs streams");
    tlbpf_assert(_inners.size() == _weights.size(),
                 "one weight per stream required");
    for (auto w : _weights)
        tlbpf_assert(w > 0, "weights must be positive");
    _done.assign(_inners.size(), false);
}

void
InterleaveStream::advanceCursor()
{
    _cursor = (_cursor + 1) % _inners.size();
    _emitted = 0;
}

bool
InterleaveStream::next(MemRef &ref)
{
    for (std::size_t attempts = 0; attempts < _inners.size();) {
        if (_done[_cursor]) {
            advanceCursor();
            ++attempts;
            continue;
        }
        if (_emitted >= _weights[_cursor]) {
            advanceCursor();
            // A full weight quantum was emitted; this is rotation, not
            // failure, so the exhaustion counter restarts.
            attempts = 0;
            continue;
        }
        if (_inners[_cursor]->next(ref)) {
            ++_emitted;
            return true;
        }
        _done[_cursor] = true;
        advanceCursor();
        ++attempts;
    }
    return false;
}

std::size_t
InterleaveStream::nextBatch(MemRef *buf, std::size_t n)
{
    // Same rotation logic as next(), but each visit to a live stream
    // pulls a whole weight quantum (or what fits in @p buf) in one
    // inner nextBatch call.
    std::size_t filled = 0;
    std::size_t attempts = 0;
    while (filled < n && attempts < _inners.size()) {
        if (_done[_cursor]) {
            advanceCursor();
            ++attempts;
            continue;
        }
        if (_emitted >= _weights[_cursor]) {
            advanceCursor();
            attempts = 0;
            continue;
        }
        std::size_t want = std::min<std::size_t>(
            n - filled, _weights[_cursor] - _emitted);
        std::size_t got = _inners[_cursor]->nextBatch(buf + filled, want);
        filled += got;
        _emitted += static_cast<std::uint32_t>(got);
        if (got < want) {
            _done[_cursor] = true;
            advanceCursor();
            ++attempts;
        } else {
            attempts = 0;
        }
    }
    return filled;
}

std::size_t
InterleaveStream::nextRuns(PageRun *buf, std::size_t n,
                           std::uint64_t page_bytes,
                           std::uint64_t max_refs)
{
    // nextBatch()'s rotation, with each visit's quantum passed down as
    // the inner stream's reference budget.
    std::size_t filled = 0;
    std::uint64_t room = max_refs;
    std::size_t attempts = 0;
    while (filled < n && room > 0 && attempts < _inners.size()) {
        if (_done[_cursor]) {
            advanceCursor();
            ++attempts;
            continue;
        }
        if (_emitted >= _weights[_cursor]) {
            advanceCursor();
            attempts = 0;
            continue;
        }
        std::uint64_t want =
            std::min<std::uint64_t>(room, _weights[_cursor] - _emitted);
        std::size_t got = _inners[_cursor]->nextRuns(
            buf + filled, n - filled, page_bytes, want);
        std::uint64_t refs = runRefs(buf + filled, got);
        filled += got;
        room -= refs;
        _emitted += static_cast<std::uint32_t>(refs);
        if (refs < want && filled < n) {
            _done[_cursor] = true; // short of both budgets: exhausted
            advanceCursor();
            ++attempts;
        } else {
            attempts = 0;
        }
    }
    return filled;
}

void
InterleaveStream::reset()
{
    for (auto &inner : _inners)
        inner->reset();
    _done.assign(_inners.size(), false);
    _cursor = 0;
    _emitted = 0;
}

std::string
InterleaveStream::describe() const
{
    std::string out = "interleave(";
    for (std::size_t i = 0; i < _inners.size(); ++i) {
        if (i)
            out += ", ";
        out += _inners[i]->describe();
    }
    return out + ")";
}

ConcatStream::ConcatStream(std::vector<std::unique_ptr<RefStream>> inners)
    : _inners(std::move(inners))
{
    tlbpf_assert(!_inners.empty(), "ConcatStream needs streams");
}

bool
ConcatStream::next(MemRef &ref)
{
    while (_cursor < _inners.size()) {
        if (_inners[_cursor]->next(ref))
            return true;
        ++_cursor;
    }
    return false;
}

std::size_t
ConcatStream::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n && _cursor < _inners.size()) {
        filled += _inners[_cursor]->nextBatch(buf + filled, n - filled);
        if (filled < n)
            ++_cursor; // current inner is exhausted
    }
    return filled;
}

std::size_t
ConcatStream::nextRuns(PageRun *buf, std::size_t n, std::uint64_t page_bytes,
                       std::uint64_t max_refs)
{
    std::size_t filled = 0;
    std::uint64_t room = max_refs;
    while (filled < n && room > 0 && _cursor < _inners.size()) {
        std::size_t got = _inners[_cursor]->nextRuns(
            buf + filled, n - filled, page_bytes, room);
        room -= runRefs(buf + filled, got);
        filled += got;
        if (filled < n && room > 0)
            ++_cursor; // short of both budgets: current inner exhausted
    }
    return filled;
}

void
ConcatStream::reset()
{
    for (auto &inner : _inners)
        inner->reset();
    _cursor = 0;
}

std::string
ConcatStream::describe() const
{
    std::string out = "concat(";
    for (std::size_t i = 0; i < _inners.size(); ++i) {
        if (i)
            out += ", ";
        out += _inners[i]->describe();
    }
    return out + ")";
}

} // namespace tlbpf
