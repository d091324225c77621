#include "tracer.hh"

#include <cstdio>
#include <stdexcept>

namespace perfbench
{

namespace
{
/** Open spans of this thread; the innermost is the next one's parent. */
thread_local std::vector<std::uint64_t> tlsOpen;
} // namespace

std::uint64_t
Tracer::begin(const std::string &name, std::uint64_t request)
{
    Span span;
    span.name = name;
    span.parent = tlsOpen.empty() ? 0 : tlsOpen.back();
    span.request = request;
    span.begin = nowNs();
    std::uint64_t id;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        id = _spans.size() + 1;
        span.id = id;
        if (request == 0 && span.parent)
            span.request = _spans[span.parent - 1].request;
        _spans.push_back(std::move(span));
    }
    tlsOpen.push_back(id);
    return id;
}

void
Tracer::end(std::uint64_t id)
{
    std::int64_t t = nowNs();
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _spans[id - 1].end = t;
    }
    if (!tlsOpen.empty() && tlsOpen.back() == id)
        tlsOpen.pop_back();
}

std::int64_t
Tracer::durationNs(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    const Span &span = _spans.at(id - 1);
    return span.end - span.begin;
}

std::int64_t
Tracer::selfNs(std::uint64_t id) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    // Spans only ever append, so the parent -> children index is
    // extended incrementally from where the last query left it.
    _children.resize(_spans.size());
    for (; _indexed < _spans.size(); ++_indexed) {
        const Span &span = _spans[_indexed];
        if (span.parent)
            _children[span.parent - 1].push_back(span.id);
    }
    const Span &span = _spans.at(id - 1);
    std::vector<Interval> children;
    for (std::uint64_t child : _children[id - 1])
        children.push_back(
            {_spans[child - 1].begin, _spans[child - 1].end});
    return selfTime({span.begin, span.end}, std::move(children));
}

std::size_t
Tracer::size() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _spans.size();
}

void
Tracer::writeJsonl(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (!out)
        throw std::runtime_error("cannot write span file " + path);
    for (const Span &span : _spans)
        std::fprintf(out,
                     "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                     "\"name\":\"%s\",\"begin_ns\":%lld,\"end_ns\":%lld}\n",
                     static_cast<unsigned long long>(span.id),
                     static_cast<unsigned long long>(span.parent),
                     static_cast<unsigned long long>(span.request),
                     span.name.c_str(),
                     static_cast<long long>(span.begin),
                     static_cast<long long>(span.end));
    std::fclose(out);
}

} // namespace perfbench
