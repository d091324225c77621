#include "workload/generators.hh"

#include <algorithm>
#include <cmath>

#include "trace/adaptors.hh"
#include "util/logging.hh"

namespace tlbpf
{

namespace
{

/** Deterministic within-page dwell offsets (8-byte aligned). */
inline Addr
dwellOffset(std::uint32_t j)
{
    return (static_cast<Addr>(j) * 264) % kDefaultPageBytes & ~7ull;
}

/**
 * The page shift a native nextRuns() serves: that of a power-of-two
 * @p page_bytes of at least kDefaultPageBytes, under which every
 * 4 KiB page the generators address lies on one simulated page;
 * kNoPageShift otherwise (the generator falls back to the base
 * implementation).
 */
constexpr std::uint32_t
generatorRunShift(std::uint64_t page_bytes)
{
    return page_bytes >= kDefaultPageBytes ? pageShiftOf(page_bytes)
                                           : kNoPageShift;
}

/**
 * References a scan at @p stride makes from @p addr before it leaves
 * the page of @p addr (a power-of-two @p page_bytes); unbounded at
 * stride 0.
 */
inline std::uint64_t
refsOnPage(Addr addr, std::int64_t stride, std::uint64_t page_bytes)
{
    std::uint64_t offset = addr & (page_bytes - 1);
    if (stride > 0)
        return (page_bytes - 1 - offset) /
                   static_cast<std::uint64_t>(stride) +
               1;
    if (stride < 0)
        return offset / (0 - static_cast<std::uint64_t>(stride)) + 1;
    return UINT64_MAX;
}

/**
 * References left in a dwell step of @p target references after
 * @p dwell, capped at @p room.  A step always holds at least one
 * reference (next() ends it after the first when target is 0).
 */
inline std::uint32_t
dwellLeft(std::uint32_t target, std::uint32_t dwell, std::uint64_t room)
{
    std::uint32_t left = target > dwell ? target - dwell : 1;
    return static_cast<std::uint32_t>(
        std::min<std::uint64_t>(left, room));
}

/** Wrap a signed page cursor into [base, base + region). */
inline Vpn
wrapPage(std::int64_t page, Vpn base, std::uint64_t region)
{
    std::int64_t rel = page - static_cast<std::int64_t>(base);
    std::int64_t span = static_cast<std::int64_t>(region);
    rel %= span;
    if (rel < 0)
        rel += span;
    return base + static_cast<Vpn>(rel);
}

} // namespace

// ---------------------------------------------------------------------
// StridedScan

StridedScan::StridedScan(const Config &config)
    : _config(config)
{
    tlbpf_assert(_config.count > 0, "StridedScan needs count > 0");
    tlbpf_assert(_config.passes > 0, "StridedScan needs passes > 0");
    if (_config.strideBytes < 0) {
        std::int64_t extent =
            -_config.strideBytes * static_cast<std::int64_t>(_config.count);
        tlbpf_assert(static_cast<std::int64_t>(_config.base) >= extent,
                     "negative-stride scan would underflow");
    }
    if (_config.shuffleBlockPages > 0) {
        tlbpf_assert(_config.strideBytes > 0,
                     "block shuffling needs a positive stride");
        std::uint64_t footprint_pages =
            (_config.count * static_cast<std::uint64_t>(
                                 _config.strideBytes)) /
                kDefaultPageBytes +
            1;
        std::uint64_t num_blocks =
            footprint_pages / _config.shuffleBlockPages + 1;
        _blockPerm.resize(num_blocks);
        for (std::uint64_t b = 0; b < num_blocks; ++b)
            _blockPerm[b] = static_cast<std::uint32_t>(b);
        Rng rng(_config.seed);
        rng.shuffle(_blockPerm);
    }
}

Addr
StridedScan::remap(Addr vaddr) const
{
    if (_blockPerm.empty())
        return vaddr;
    Addr offset = vaddr - _config.base;
    Addr page = offset / kDefaultPageBytes;
    Addr in_page = offset % kDefaultPageBytes;
    Addr block = page / _config.shuffleBlockPages;
    Addr in_block = page % _config.shuffleBlockPages;
    Addr new_page = static_cast<Addr>(_blockPerm[block]) *
                        _config.shuffleBlockPages +
                    in_block;
    return _config.base + new_page * kDefaultPageBytes + in_page;
}

Addr
StridedScan::scanAddr() const
{
    return static_cast<Addr>(static_cast<std::int64_t>(_config.base) +
                             _config.strideBytes *
                                 static_cast<std::int64_t>(_i));
}

void
StridedScan::advance(std::uint64_t count)
{
    _i += count;
    if (_i >= _config.count) {
        _i = 0;
        ++_pass;
    }
}

bool
StridedScan::next(MemRef &ref)
{
    if (_pass >= _config.passes)
        return false;
    ref.vaddr = remap(scanAddr());
    ref.pc = _config.pc;
    ref.isWrite = false;
    ref.icount = 0;
    advance(1);
    return true;
}


// Generator nextBatch overrides use a qualified next() call so the
// per-reference step inlines into one flat loop instead of a virtual
// dispatch per reference.
std::size_t
StridedScan::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n && StridedScan::next(buf[filled]))
        ++filled;
    return filled;
}

std::size_t
StridedScan::nextRuns(PageRun *buf, std::size_t n, std::uint64_t page_bytes,
                      std::uint64_t max_refs)
{
    const std::uint32_t shift = generatorRunShift(page_bytes);
    if (shift == kNoPageShift)
        return RefStream::nextRuns(buf, n, page_bytes, max_refs);
    RunFill out(buf, n, max_refs);
    while (!out.full() && _pass < _config.passes) {
        Addr raw = scanAddr();
        Addr vaddr = remap(raw);
        // A run ends where the scan leaves its page, and under block
        // shuffling also where the unshuffled address leaves its
        // 4 KiB page (remap() moves whole pages).
        std::uint64_t left = std::min(
            {_config.count - _i, out.room(),
             refsOnPage(vaddr, _config.strideBytes, page_bytes)});
        if (!_blockPerm.empty())
            left = std::min(left,
                            refsOnPage(raw - _config.base,
                                       _config.strideBytes,
                                       kDefaultPageBytes));
        out.add(vaddr >> shift, _config.pc, left);
        advance(left);
    }
    return out.filled();
}

void
StridedScan::reset()
{
    _i = 0;
    _pass = 0;
}

std::string
StridedScan::describe() const
{
    return "strided(stride=" + std::to_string(_config.strideBytes) +
           ",count=" + std::to_string(_config.count) + ",passes=" +
           std::to_string(_config.passes) + ")";
}

// ---------------------------------------------------------------------
// ChangingStrideScan

ChangingStrideScan::ChangingStrideScan(const Config &config)
    : _config(config), _cursor(config.base)
{
    tlbpf_assert(!_config.phases.empty(),
                 "ChangingStrideScan needs phases");
    for (const Phase &phase : _config.phases)
        tlbpf_assert(phase.count > 0, "phase count must be positive");
}

bool
ChangingStrideScan::next(MemRef &ref)
{
    if (_pass >= _config.passes)
        return false;
    ref.vaddr = _cursor;
    ref.pc = _config.pc;
    ref.isWrite = false;
    ref.icount = 0;
    advance(1);
    return true;
}

void
ChangingStrideScan::advance(std::uint64_t count)
{
    const Phase &phase = _config.phases[_phase];
    _cursor += static_cast<Addr>(phase.strideBytes) * count;
    _inPhase += count;
    if (_inPhase >= phase.count) {
        _inPhase = 0;
        if (++_phase >= _config.phases.size()) {
            _phase = 0;
            _cursor = _config.base;
            ++_pass;
        }
    }
}


std::size_t
ChangingStrideScan::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n && ChangingStrideScan::next(buf[filled]))
        ++filled;
    return filled;
}

std::size_t
ChangingStrideScan::nextRuns(PageRun *buf, std::size_t n,
                             std::uint64_t page_bytes,
                             std::uint64_t max_refs)
{
    const std::uint32_t shift = generatorRunShift(page_bytes);
    if (shift == kNoPageShift)
        return RefStream::nextRuns(buf, n, page_bytes, max_refs);
    RunFill out(buf, n, max_refs);
    while (!out.full() && _pass < _config.passes) {
        const Phase &phase = _config.phases[_phase];
        std::uint64_t left =
            std::min({phase.count - _inPhase, out.room(),
                      refsOnPage(_cursor, phase.strideBytes,
                                 page_bytes)});
        out.add(_cursor >> shift, _config.pc, left);
        advance(left);
    }
    return out.filled();
}

void
ChangingStrideScan::reset()
{
    _cursor = _config.base;
    _phase = 0;
    _inPhase = 0;
    _pass = 0;
}

std::string
ChangingStrideScan::describe() const
{
    return "changing-stride(" + std::to_string(_config.phases.size()) +
           " phases)";
}

// ---------------------------------------------------------------------
// DistancePatternWalk

DistancePatternWalk::DistancePatternWalk(const Config &config)
    : _config(config), _rng(config.seed), _page(config.basePage)
{
    tlbpf_assert(!_config.pattern.empty(),
                 "DistancePatternWalk needs a pattern");
    tlbpf_assert(_config.refsPerStep > 0, "refsPerStep must be positive");
    tlbpf_assert(_config.regionPages > 1, "region must exceed one page");
}

void
DistancePatternWalk::advancePage()
{
    std::int64_t delta = _config.pattern[_patternPos];
    _patternPos = (_patternPos + 1) % _config.pattern.size();
    if (_config.noise > 0.0 && _rng.chance(_config.noise)) {
        std::int64_t mag =
            static_cast<std::int64_t>(_rng.nextBelow(16)) + 1;
        delta = _rng.chance(0.5) ? mag : -mag;
    }
    _page = wrapPage(static_cast<std::int64_t>(_page) + delta,
                     _config.basePage, _config.regionPages);
}

bool
DistancePatternWalk::next(MemRef &ref)
{
    if (_pass >= _config.passes)
        return false;
    ref.vaddr = _page * kDefaultPageBytes + dwellOffset(_dwell);
    ref.pc = _config.pcBase + 4 * _dwell;
    ref.isWrite = false;
    ref.icount = 0;
    advance(1);
    return true;
}

void
DistancePatternWalk::advance(std::uint32_t count)
{
    _dwell += count;
    if (_dwell >= _config.refsPerStep) {
        _dwell = 0;
        advancePage();
        if (++_step >= _config.steps) {
            _step = 0;
            _page = _config.basePage;
            _patternPos = 0;
            ++_pass;
        }
    }
}


std::size_t
DistancePatternWalk::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n && DistancePatternWalk::next(buf[filled]))
        ++filled;
    return filled;
}

std::size_t
DistancePatternWalk::nextRuns(PageRun *buf, std::size_t n,
                              std::uint64_t page_bytes,
                              std::uint64_t max_refs)
{
    const std::uint32_t shift = generatorRunShift(page_bytes);
    if (shift == kNoPageShift)
        return RefStream::nextRuns(buf, n, page_bytes, max_refs);
    RunFill out(buf, n, max_refs);
    while (!out.full() && _pass < _config.passes) {
        std::uint32_t left =
            dwellLeft(_config.refsPerStep, _dwell, out.room());
        out.add((_page * kDefaultPageBytes + dwellOffset(_dwell)) >> shift,
                _config.pcBase + 4 * _dwell, left);
        advance(left);
    }
    return out.filled();
}

void
DistancePatternWalk::reset()
{
    _rng = Rng(_config.seed);
    _page = _config.basePage;
    _step = 0;
    _dwell = 0;
    _pass = 0;
    _patternPos = 0;
}

std::string
DistancePatternWalk::describe() const
{
    return "distance-pattern(k=" + std::to_string(_config.pattern.size()) +
           ",steps=" + std::to_string(_config.steps) + ")";
}

// ---------------------------------------------------------------------
// HistoryLoop

HistoryLoop::HistoryLoop(const Config &config)
    : _config(config), _dwellRng(config.seed ^ 0xd3e11ull)
{
    tlbpf_assert(_config.footprintPages >= 4, "footprint too small");
    tlbpf_assert(_config.seqLen >= 2, "sequence too short");
    tlbpf_assert(_config.alphabetSize >= 2, "alphabet too small");
    tlbpf_assert(_config.refsPerStep > 0, "refsPerStep must be positive");
    buildSequence();
    _dwellTarget = stepDwell();
}

std::uint32_t
HistoryLoop::stepDwell()
{
    if (_config.burstiness <= 0.0 || _config.refsPerStep < 4)
        return _config.refsPerStep;
    if (_dwellRng.chance(_config.burstiness))
        return 1 + static_cast<std::uint32_t>(_dwellRng.nextBelow(3));
    // Keep the mean dwell (hence the miss rate) at ~refsPerStep:
    // solve p*2 + (1-p)*m = refsPerStep for the non-burst dwell m.
    double p = _config.burstiness;
    double m = (static_cast<double>(_config.refsPerStep) - 2.0 * p) /
               (1.0 - p);
    std::uint32_t lo = static_cast<std::uint32_t>(m * 0.6);
    std::uint32_t hi = static_cast<std::uint32_t>(m * 1.4) + 1;
    return lo + static_cast<std::uint32_t>(
                    _dwellRng.nextBelow(hi - lo + 1));
}

void
HistoryLoop::buildSequence()
{
    Rng rng(_config.seed);

    // Distance alphabet: distinct non-zero signed page deltas bounded
    // by a small multiple of the alphabet size, so distances collide
    // heavily across the sequence (that is what separates DP's
    // distance-indexed table from MP's page-indexed one here).
    std::vector<std::int64_t> alphabet;
    std::int64_t bound =
        static_cast<std::int64_t>(_config.alphabetSize) * 3;
    while (alphabet.size() < _config.alphabetSize) {
        std::int64_t d = rng.nextRange(-bound, bound);
        if (d == 0)
            continue;
        bool dup = false;
        for (std::int64_t existing : alphabet)
            dup = dup || existing == d;
        if (!dup)
            alphabet.push_back(d);
    }

    // Canonical successor structure over the alphabet: with probability
    // skew, distance a is followed by succ[a]; otherwise by a random
    // element.  DP's attainable accuracy is governed by skew (plus what
    // its second LRU slot picks up); RP/MP see the *pages*, whose exact
    // sequence repeats every pass, so they can approach 100% once
    // history is built.
    std::vector<std::uint32_t> succ(_config.alphabetSize);
    for (auto &s : succ)
        s = static_cast<std::uint32_t>(
            rng.nextBelow(_config.alphabetSize));

    // The walk visits each page at most once per sweep of the
    // footprint (a near-permutation): a page revisited in *different*
    // sequence contexts would poison the recency stack's and the
    // Markov table's learned successors, and the paper's history
    // applications are precisely the ones where "the next reference
    // after a given address is very likely to remain the same".  When
    // every alphabet distance lands on a visited page, fall back to
    // the nearest unvisited page (an out-of-alphabet distance that DP
    // cannot learn, which is part of what keeps DP below RP here).
    _sequence.clear();
    _sequence.reserve(_config.seqLen);
    std::vector<bool> visited(_config.footprintPages, false);
    std::uint64_t visited_count = 0;

    std::int64_t page = static_cast<std::int64_t>(_config.basePage) +
                        static_cast<std::int64_t>(
                            _config.footprintPages / 2);
    std::uint32_t prev = 0;
    auto rel = [this](Vpn vpn) { return vpn - _config.basePage; };

    for (std::uint64_t i = 0; i < _config.seqLen; ++i) {
        if (visited_count >= _config.footprintPages) {
            std::fill(visited.begin(), visited.end(), false);
            visited_count = 0;
        }
        std::uint32_t pick =
            rng.chance(_config.skew)
                ? succ[prev]
                : static_cast<std::uint32_t>(
                      rng.nextBelow(_config.alphabetSize));
        Vpn target = wrapPage(page + alphabet[pick], _config.basePage,
                              _config.footprintPages);
        // Retry with random alphabet distances if already visited.
        for (unsigned attempt = 0;
             visited[rel(target)] && attempt < _config.alphabetSize;
             ++attempt) {
            pick = static_cast<std::uint32_t>(
                rng.nextBelow(_config.alphabetSize));
            target = wrapPage(page + alphabet[pick], _config.basePage,
                              _config.footprintPages);
        }
        // Last resort: nearest unvisited page scanning upwards.
        while (visited[rel(target)]) {
            target = wrapPage(static_cast<std::int64_t>(target) + 1,
                              _config.basePage, _config.footprintPages);
        }
        visited[rel(target)] = true;
        ++visited_count;
        page = static_cast<std::int64_t>(target);
        _sequence.push_back(target);
        prev = pick;
    }
}

bool
HistoryLoop::next(MemRef &ref)
{
    if (_pass >= _config.passes)
        return false;
    ref.vaddr = _sequence[_pos] * kDefaultPageBytes + dwellOffset(_dwell);
    ref.pc = _config.pcBase + 4 * (_dwell % 8);
    ref.isWrite = false;
    ref.icount = 0;
    advance(1);
    return true;
}

void
HistoryLoop::advance(std::uint32_t count)
{
    _dwell += count;
    if (_dwell >= _dwellTarget) {
        _dwell = 0;
        _dwellTarget = stepDwell();
        if (++_pos >= _sequence.size()) {
            _pos = 0;
            ++_pass;
        }
    }
}


std::size_t
HistoryLoop::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n && HistoryLoop::next(buf[filled]))
        ++filled;
    return filled;
}

std::size_t
HistoryLoop::nextRuns(PageRun *buf, std::size_t n, std::uint64_t page_bytes,
                      std::uint64_t max_refs)
{
    const std::uint32_t shift = generatorRunShift(page_bytes);
    if (shift == kNoPageShift)
        return RefStream::nextRuns(buf, n, page_bytes, max_refs);
    RunFill out(buf, n, max_refs);
    while (!out.full() && _pass < _config.passes) {
        std::uint32_t left = dwellLeft(_dwellTarget, _dwell, out.room());
        out.add((_sequence[_pos] * kDefaultPageBytes +
                 dwellOffset(_dwell)) >>
                    shift,
                _config.pcBase + 4 * (_dwell % 8), left);
        advance(left);
    }
    return out.filled();
}

void
HistoryLoop::reset()
{
    _dwellRng = Rng(_config.seed ^ 0xd3e11ull);
    _pos = 0;
    _dwell = 0;
    _dwellTarget = stepDwell();
    _pass = 0;
}

std::string
HistoryLoop::describe() const
{
    return "history-loop(fp=" + std::to_string(_config.footprintPages) +
           ",skew=" + std::to_string(_config.skew) + ")";
}

// ---------------------------------------------------------------------
// AlternatingPermutations

AlternatingPermutations::AlternatingPermutations(const Config &config)
    : _config(config)
{
    tlbpf_assert(_config.numPages >= 2, "need at least two pages");
    Rng rng(config.seed);
    for (auto &perm : _perm) {
        perm.resize(_config.numPages);
        for (std::uint64_t i = 0; i < _config.numPages; ++i)
            perm[i] = _config.basePage + i;
        rng.shuffle(perm);
    }
}

bool
AlternatingPermutations::next(MemRef &ref)
{
    if (_round >= _config.rounds)
        return false;
    ref.vaddr = _perm[_round % 2][_pos] * kDefaultPageBytes +
                dwellOffset(_dwell);
    ref.pc = _config.pcBase + 4 * _dwell;
    ref.isWrite = false;
    ref.icount = 0;
    advance(1);
    return true;
}

void
AlternatingPermutations::advance(std::uint32_t count)
{
    _dwell += count;
    if (_dwell >= _config.refsPerStep) {
        _dwell = 0;
        if (++_pos >= _perm[_round % 2].size()) {
            _pos = 0;
            ++_round;
        }
    }
}


std::size_t
AlternatingPermutations::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n && AlternatingPermutations::next(buf[filled]))
        ++filled;
    return filled;
}

std::size_t
AlternatingPermutations::nextRuns(PageRun *buf, std::size_t n,
                                  std::uint64_t page_bytes,
                                  std::uint64_t max_refs)
{
    const std::uint32_t shift = generatorRunShift(page_bytes);
    if (shift == kNoPageShift)
        return RefStream::nextRuns(buf, n, page_bytes, max_refs);
    RunFill out(buf, n, max_refs);
    while (!out.full() && _round < _config.rounds) {
        std::uint32_t left =
            dwellLeft(_config.refsPerStep, _dwell, out.room());
        out.add((_perm[_round % 2][_pos] * kDefaultPageBytes +
                 dwellOffset(_dwell)) >>
                    shift,
                _config.pcBase + 4 * _dwell, left);
        advance(left);
    }
    return out.filled();
}

void
AlternatingPermutations::reset()
{
    _pos = 0;
    _dwell = 0;
    _round = 0;
}

std::string
AlternatingPermutations::describe() const
{
    return "alternating-perms(n=" + std::to_string(_config.numPages) +
           ",rounds=" + std::to_string(_config.rounds) + ")";
}

// ---------------------------------------------------------------------
// ZipfMix

ZipfMix::ZipfMix(const Config &config)
    : _config(config),
      _rng(config.seed),
      _zipf(config.numPages, config.zipfSkew),
      _page(config.basePage)
{
    tlbpf_assert(_config.refsPerStep > 0, "refsPerStep must be positive");
    _pageMap.resize(_config.numPages);
    for (std::uint64_t i = 0; i < _config.numPages; ++i)
        _pageMap[i] = _config.basePage + i;
    Rng shuffler(config.seed ^ 0xa5a5a5a5ull);
    shuffler.shuffle(_pageMap);
    _page = _pageMap[_zipf.sample(_rng)];
}

bool
ZipfMix::next(MemRef &ref)
{
    if (_step >= _config.steps)
        return false;
    ref.vaddr = _page * kDefaultPageBytes + dwellOffset(_dwell);
    ref.pc = _config.pcBase + 4 * _dwell;
    ref.isWrite = false;
    ref.icount = 0;
    advance(1);
    return true;
}

void
ZipfMix::advance(std::uint32_t count)
{
    _dwell += count;
    if (_dwell >= _config.refsPerStep) {
        _dwell = 0;
        ++_step;
        _page = _pageMap[_zipf.sample(_rng)];
    }
}


std::size_t
ZipfMix::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t filled = 0;
    while (filled < n && ZipfMix::next(buf[filled]))
        ++filled;
    return filled;
}

std::size_t
ZipfMix::nextRuns(PageRun *buf, std::size_t n, std::uint64_t page_bytes,
                  std::uint64_t max_refs)
{
    const std::uint32_t shift = generatorRunShift(page_bytes);
    if (shift == kNoPageShift)
        return RefStream::nextRuns(buf, n, page_bytes, max_refs);
    RunFill out(buf, n, max_refs);
    while (!out.full() && _step < _config.steps) {
        std::uint32_t left =
            dwellLeft(_config.refsPerStep, _dwell, out.room());
        out.add((_page * kDefaultPageBytes + dwellOffset(_dwell)) >> shift,
                _config.pcBase + 4 * _dwell, left);
        advance(left);
    }
    return out.filled();
}

void
ZipfMix::reset()
{
    _rng = Rng(_config.seed);
    _step = 0;
    _dwell = 0;
    _page = _pageMap.empty() ? _config.basePage
                             : _pageMap[_zipf.sample(_rng)];
}

std::string
ZipfMix::describe() const
{
    return "zipf(n=" + std::to_string(_config.numPages) + ",skew=" +
           std::to_string(_config.zipfSkew) + ")";
}

// ---------------------------------------------------------------------
// PaceStream

PaceStream::PaceStream(std::unique_ptr<RefStream> inner,
                       double instr_per_ref)
    : _inner(std::move(inner)), _instrPerRef(instr_per_ref)
{
    tlbpf_assert(_inner != nullptr, "PaceStream needs a stream");
    tlbpf_assert(instr_per_ref >= 1.0,
                 "each reference needs at least one instruction");
}

bool
PaceStream::next(MemRef &ref)
{
    if (!_inner->next(ref))
        return false;
    ref.icount = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(_emitted) * _instrPerRef));
    ++_emitted;
    return true;
}


std::size_t
PaceStream::nextBatch(MemRef *buf, std::size_t n)
{
    std::size_t got = _inner->nextBatch(buf, n);
    for (std::size_t i = 0; i < got; ++i) {
        buf[i].icount = static_cast<std::uint64_t>(std::llround(
            static_cast<double>(_emitted) * _instrPerRef));
        ++_emitted;
    }
    return got;
}

std::size_t
PaceStream::nextRuns(PageRun *buf, std::size_t n, std::uint64_t page_bytes,
                     std::uint64_t max_refs)
{
    std::size_t got = _inner->nextRuns(buf, n, page_bytes, max_refs);
    _emitted += runRefs(buf, got);
    return got;
}

void
PaceStream::reset()
{
    _inner->reset();
    _emitted = 0;
}

std::string
PaceStream::describe() const
{
    return "paced(" + _inner->describe() + ")";
}

// ---------------------------------------------------------------------

std::unique_ptr<RefStream>
makeMultiStreamScan(std::vector<StridedScan::Config> streams,
                    std::uint32_t chunk)
{
    tlbpf_assert(!streams.empty(), "need at least one stream");
    std::vector<std::unique_ptr<RefStream>> inners;
    std::vector<std::uint32_t> weights;
    for (const auto &config : streams) {
        inners.push_back(std::make_unique<StridedScan>(config));
        weights.push_back(chunk);
    }
    return std::make_unique<InterleaveStream>(std::move(inners),
                                              std::move(weights));
}

} // namespace tlbpf
