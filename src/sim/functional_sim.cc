#include "sim/functional_sim.hh"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "util/bits.hh"
#include "util/check.hh"

namespace tlbpf
{

namespace
{

/** log2(@p page_bytes) when it is a power of two, else UINT32_MAX. */
std::uint32_t
pageShiftOf(std::uint64_t page_bytes)
{
    return isPowerOfTwo(page_bytes) ? floorLog2(page_bytes)
                                    : UINT32_MAX;
}

/** Page of @p ref under pageShiftOf(@p page_bytes) == @p shift. */
inline Vpn
pageNumber(const MemRef &ref, std::uint32_t shift,
           std::uint64_t page_bytes)
{
    // The paper's page sizes are powers of two, so the hot path is a
    // shift; the division is kept for exotic configs.
    return shift != UINT32_MAX ? ref.vaddr >> shift
                               : ref.vpn(page_bytes);
}

/**
 * Whether @p prefetcher also observes TLB hits: under the
 * trainOnAllRefs ablation every mechanism does except RP, whose stack
 * is defined by TLB evictions.
 */
bool
observesHits(const SimConfig &config, const Prefetcher *prefetcher)
{
    return config.trainOnAllRefs && prefetcher &&
           prefetcher->name() != "RP";
}

/**
 * Issue @p targets, predicted on a reference to @p vpn: a target that
 * is the page itself, is in @p tlb or is already in @p buffer is
 * suppressed; any other goes into the buffer.
 */
inline void
issuePrefetches(const std::vector<Vpn> &targets, Vpn vpn, const Tlb &tlb,
                PrefetchBuffer &buffer, SimResult &result)
{
    for (Vpn target : targets) {
        if (target != vpn && !tlb.contains(target) &&
            buffer.insertIfAbsent(target))
            ++result.prefetchesIssued;
        else
            ++result.prefetchesSuppressed;
    }
}

} // namespace

FunctionalSimulator::FunctionalSimulator(const SimConfig &config,
                                         const MechanismSpec &spec)
    : _config(config),
      _mechLabel(spec.label()),
      _pageShift(pageShiftOf(config.pageBytes)),
      _tlb(config.tlb),
      _buffer(config.pbEntries),
      _prefetcher(spec.build(_pt)),
      _trainsOnHits(observesHits(config, _prefetcher.get()))
{
}

Vpn
FunctionalSimulator::pageOf(const MemRef &ref) const
{
    return pageNumber(ref, _pageShift, _config.pageBytes);
}

void
FunctionalSimulator::process(const MemRef &ref)
{
    if (_config.contextSwitchInterval &&
        _result.refs > 0 &&
        _result.refs % _config.contextSwitchInterval == 0) {
        _tlb.flush();
        _buffer.flush();
        if (_prefetcher)
            _prefetcher->reset();
        ++_result.contextSwitches;
    }
    ++_result.refs;
    Vpn vpn = pageOf(ref);

    if (_tlb.access(vpn)) {
        // Ablation mode: the prefetcher observes hits as well (it sits
        // on the reference stream rather than the miss stream).
        if (_trainsOnHits) {
            _decision.clear();
            TlbMiss observed{vpn, ref.pc, false, kNoPage};
            _prefetcher->onMiss(observed, _decision);
            issuePrefetches(_decision.targets, vpn, _tlb, _buffer,
                            _result);
        }
        return;
    }

    ++_result.misses;
    _pt.lookup(vpn); // materialise the translation

    Tick ready_at = 0;
    bool pb_hit = _buffer.hitAndPromote(vpn, ready_at);
    if (pb_hit)
        ++_result.pbHits;
    else
        ++_result.demandFetches;

    std::optional<Vpn> evicted = _tlb.insert(vpn);

    if (!_prefetcher)
        return;

    _decision.clear();
    TlbMiss miss{vpn, ref.pc, pb_hit, evicted.value_or(kNoPage)};
    _prefetcher->onMiss(miss, _decision);
    _result.stateOps += _decision.stateOps;
    issuePrefetches(_decision.targets, vpn, _tlb, _buffer, _result);
}

const SimResult &
FunctionalSimulator::result()
{
    _result.footprintPages = _pt.size();
    _result.pbEvictedUnused = _buffer.evictedUnused();
    return _result;
}

namespace
{

/** Leading bytes of every checkpoint: "TPFS" + format version. */
constexpr std::uint32_t kSnapshotMagic = 0x53465054; // 'T','P','F','S'
constexpr std::uint8_t kSnapshotVersion = 1;

void
writeCounters(SnapshotWriter &out, const SimResult &r)
{
    out.u64(r.refs);
    out.u64(r.misses);
    out.u64(r.pbHits);
    out.u64(r.demandFetches);
    out.u64(r.prefetchesIssued);
    out.u64(r.prefetchesSuppressed);
    out.u64(r.stateOps);
    out.u64(r.pbEvictedUnused);
    out.u64(r.footprintPages);
    out.u64(r.contextSwitches);
}

void
readCounters(SnapshotReader &in, SimResult &r)
{
    r.refs = in.u64();
    r.misses = in.u64();
    r.pbHits = in.u64();
    r.demandFetches = in.u64();
    r.prefetchesIssued = in.u64();
    r.prefetchesSuppressed = in.u64();
    r.stateOps = in.u64();
    r.pbEvictedUnused = in.u64();
    r.footprintPages = in.u64();
    r.contextSwitches = in.u64();
}

} // namespace

bool
FunctionalSimulator::checkpointable() const
{
    return !_prefetcher || _prefetcher->checkpointable();
}

SimState
FunctionalSimulator::snapshot() const
{
    if (!checkpointable())
        throw std::invalid_argument(
            "mechanism '" + _mechLabel +
            "' does not support checkpointing; use replay warm-up");
    SnapshotWriter out;
    // Rough upper bound on the serialized size: page table entries
    // dominate (33 bytes each), then TLB slots and buffer nodes.
    out.reserve(512 + 40 * _pt.size() +
                17 * static_cast<std::size_t>(_config.tlb.entries) +
                16 * static_cast<std::size_t>(_config.pbEntries));
    out.u32(kSnapshotMagic);
    out.u8(kSnapshotVersion);

    // Configuration signature: a checkpoint only restores into a
    // simulator that would have produced it.
    out.u32(_config.tlb.entries);
    out.u32(_config.tlb.assoc);
    out.u32(_config.pbEntries);
    out.u64(_config.pageBytes);
    out.boolean(_config.trainOnAllRefs);
    out.u64(_config.contextSwitchInterval);
    out.str(_mechLabel);

    writeCounters(out, _result);
    _tlb.snapshotState(out);
    _buffer.snapshotState(out);
    _pt.snapshotState(out);
    out.boolean(_prefetcher != nullptr);
    if (_prefetcher)
        _prefetcher->snapshotState(out);
    return SimState{out.take()};
}

void
FunctionalSimulator::restore(const SimState &state)
{
    SnapshotReader in(state.bytes);
    if (in.u32() != kSnapshotMagic)
        SnapshotReader::fail("bad magic (not a simulator checkpoint)");
    if (std::uint8_t version = in.u8(); version != kSnapshotVersion)
        SnapshotReader::fail("unsupported checkpoint version " +
                             std::to_string(version));

    if (in.u32() != _config.tlb.entries ||
        in.u32() != _config.tlb.assoc ||
        in.u32() != _config.pbEntries ||
        in.u64() != _config.pageBytes ||
        in.boolean() != _config.trainOnAllRefs ||
        in.u64() != _config.contextSwitchInterval)
        SnapshotReader::fail(
            "simulator configuration does not match the checkpoint");
    if (std::string mech = in.str(); mech != _mechLabel)
        SnapshotReader::fail("checkpoint was taken under mechanism '" +
                             mech + "', this simulator runs '" +
                             _mechLabel + "'");

    readCounters(in, _result);
    _tlb.restoreState(in);
    _buffer.restoreState(in);
    _pt.restoreState(in); // before the mechanism: RP links live here
    bool has_prefetcher = in.boolean();
    if (has_prefetcher != (_prefetcher != nullptr))
        SnapshotReader::fail(
            "checkpoint and simulator disagree on mechanism presence");
    if (_prefetcher)
        _prefetcher->restoreState(in);
    if (!in.atEnd())
        SnapshotReader::fail("trailing bytes after checkpoint");
    // The whole checkpoint design rests on restore() being the exact
    // inverse of snapshot(): shard chains and the persistent store
    // both assume a restored simulator re-serializes to the same
    // bytes.  A component whose restoreState() loses state (a rebuilt
    // index that reorders, an LRU clock that resets) would silently
    // skew every downstream window; catch it at the boundary.
    TLBPF_DCHECK_MSG(snapshot().bytes == state.bytes,
                     "restore() is not the inverse of snapshot() for "
                     "mechanism '", _mechLabel, "'");
}

SimResult
simulate(const SimConfig &config, const MechanismSpec &spec,
         RefStream &stream)
{
    FunctionalSimulator sim(config, spec);
    std::vector<MemRef> block(kSimBatchRefs);
    std::size_t got;
    while ((got = stream.nextBatch(block.data(), block.size())) > 0) {
        for (std::size_t i = 0; i < got; ++i)
            sim.process(block[i]);
    }
    return sim.result();
}

namespace
{

/**
 * The mechanism-dependent half of FunctionalSimulator::process(): a
 * prefetch buffer, the prefetcher and the counters they drive.  The
 * TLB, page numbering and the refs/misses/contextSwitches counters
 * belong to the shared front-end in simulateMany(), which calls in
 * here on every TLB miss (and, under trainOnAllRefs, on the hits its
 * mechanism observes) with the shared TLB already updated.
 */
class MissBackEnd
{
  public:
    MissBackEnd(const SimConfig &config, const MechanismSpec &spec)
        : _buffer(config.pbEntries),
          _prefetcher(spec.build(_pt)),
          _trainsOnHits(observesHits(config, _prefetcher.get()))
    {
    }

    // Pinned: the prefetcher holds a reference to _pt.
    MissBackEnd(const MissBackEnd &) = delete;
    MissBackEnd &operator=(const MissBackEnd &) = delete;

    bool trainsOnHits() const { return _trainsOnHits; }

    /** Context switch: the shared TLB is flushed by the caller. */
    void
    flush()
    {
        _buffer.flush();
        if (_prefetcher)
            _prefetcher->reset();
    }

    /** TLB miss to @p vpn, which @p tlb has just installed. */
    void
    onMiss(Vpn vpn, Addr pc, Vpn evicted, const Tlb &tlb)
    {
        Tick ready_at = 0;
        bool pb_hit = _buffer.hitAndPromote(vpn, ready_at);
        if (pb_hit)
            ++_result.pbHits;
        else
            ++_result.demandFetches;
        if (!_prefetcher)
            return;
        _decision.clear();
        _prefetcher->onMiss(TlbMiss{vpn, pc, pb_hit, evicted},
                            _decision);
        _result.stateOps += _decision.stateOps;
        issuePrefetches(_decision.targets, vpn, tlb, _buffer, _result);
    }

    /** TLB hit to @p vpn, seen only when trainsOnHits(). */
    void
    onHit(Vpn vpn, Addr pc, const Tlb &tlb)
    {
        _decision.clear();
        _prefetcher->onMiss(TlbMiss{vpn, pc, false, kNoPage}, _decision);
        issuePrefetches(_decision.targets, vpn, tlb, _buffer, _result);
    }

    /**
     * This mechanism's full counters: @p shared supplies the
     * mechanism-independent ones.  The footprint is every page the
     * front-end or the mechanism materialised — exactly the pages a
     * FunctionalSimulator's single table would hold.
     */
    SimResult
    result(const SimResult &shared, const PageTable &shared_pt) const
    {
        SimResult r = _result;
        r.refs = shared.refs;
        r.misses = shared.misses;
        r.contextSwitches = shared.contextSwitches;
        r.footprintPages = shared_pt.unionSize(_pt);
        r.pbEvictedUnused = _buffer.evictedUnused();
        return r;
    }

  private:
    /** Filled only by the mechanism itself (RP's stack links). */
    PageTable _pt;
    PrefetchBuffer _buffer;
    std::unique_ptr<Prefetcher> _prefetcher;
    bool _trainsOnHits;
    PrefetchDecision _decision;
    SimResult _result;
};

} // namespace

std::vector<SimResult>
simulateMany(const SimConfig &config,
             const std::vector<MechanismSpec> &specs, RefStream &stream)
{
    // A deque grows without relocating its (pinned) elements.
    std::deque<MissBackEnd> backs;
    std::vector<MissBackEnd *> hit_trainers;
    for (const MechanismSpec &spec : specs) {
        MissBackEnd &back = backs.emplace_back(config, spec);
        if (back.trainsOnHits())
            hit_trainers.push_back(&back);
    }

    const std::uint32_t shift = pageShiftOf(config.pageBytes);
    Tlb tlb(config.tlb);
    PageTable pt;
    SimResult shared;
    std::vector<MemRef> block(kSimBatchRefs);
    std::size_t got;
    while ((got = stream.nextBatch(block.data(), block.size())) > 0) {
        for (std::size_t i = 0; i < got; ++i) {
            const MemRef &ref = block[i];
            if (config.contextSwitchInterval && shared.refs > 0 &&
                shared.refs % config.contextSwitchInterval == 0) {
                tlb.flush();
                for (MissBackEnd &back : backs)
                    back.flush();
                ++shared.contextSwitches;
            }
            ++shared.refs;
            Vpn vpn = pageNumber(ref, shift, config.pageBytes);

            if (tlb.access(vpn)) {
                for (MissBackEnd *back : hit_trainers)
                    back->onHit(vpn, ref.pc, tlb);
                continue;
            }

            ++shared.misses;
            pt.lookup(vpn); // materialise the translation
            Vpn evicted = tlb.insert(vpn).value_or(kNoPage);
            // Lockstep: every back-end handles this miss against the
            // exact shared TLB before the next reference probes it.
            for (MissBackEnd &back : backs)
                back.onMiss(vpn, ref.pc, evicted, tlb);
        }
    }

    std::vector<SimResult> results;
    results.reserve(backs.size());
    for (const MissBackEnd &back : backs)
        results.push_back(back.result(shared, pt));
    return results;
}

void
addCounters(SimResult &into, const SimResult &from)
{
    into.refs += from.refs;
    into.misses += from.misses;
    into.pbHits += from.pbHits;
    into.demandFetches += from.demandFetches;
    into.prefetchesIssued += from.prefetchesIssued;
    into.prefetchesSuppressed += from.prefetchesSuppressed;
    into.stateOps += from.stateOps;
    into.pbEvictedUnused += from.pbEvictedUnused;
    into.footprintPages += from.footprintPages;
    into.contextSwitches += from.contextSwitches;
}

namespace
{

/** Field-wise @p end - @p start; valid because every field is monotone. */
SimResult
counterDelta(const SimResult &end, const SimResult &start)
{
    SimResult delta;
    delta.refs = end.refs - start.refs;
    delta.misses = end.misses - start.misses;
    delta.pbHits = end.pbHits - start.pbHits;
    delta.demandFetches = end.demandFetches - start.demandFetches;
    delta.prefetchesIssued =
        end.prefetchesIssued - start.prefetchesIssued;
    delta.prefetchesSuppressed =
        end.prefetchesSuppressed - start.prefetchesSuppressed;
    delta.stateOps = end.stateOps - start.stateOps;
    delta.pbEvictedUnused = end.pbEvictedUnused - start.pbEvictedUnused;
    delta.footprintPages = end.footprintPages - start.footprintPages;
    delta.contextSwitches = end.contextSwitches - start.contextSwitches;
    return delta;
}

/**
 * Feed @p sim batched references until @p processed reaches @p limit
 * or the stream ends.
 */
void
simulateUpTo(FunctionalSimulator &sim, RefStream &stream,
             std::uint64_t limit, std::uint64_t &processed)
{
    std::vector<MemRef> block(kSimBatchRefs);
    while (processed < limit) {
        std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(limit - processed, block.size()));
        std::size_t got = stream.nextBatch(block.data(), want);
        for (std::size_t i = 0; i < got; ++i)
            sim.process(block[i]);
        processed += got;
        if (got < want)
            break;
    }
}

} // namespace

SimResult
simulateWindow(const SimConfig &config, const MechanismSpec &spec,
               RefStream &stream, std::uint64_t skip,
               std::uint64_t take)
{
    FunctionalSimulator sim(config, spec);
    std::uint64_t processed = 0;
    simulateUpTo(sim, stream, skip, processed);
    SimResult start = sim.result();
    std::uint64_t end = take > ~0ull - skip ? ~0ull : skip + take;
    simulateUpTo(sim, stream, end, processed);
    return counterDelta(sim.result(), start);
}

SimResult
simulateWindowFrom(const SimConfig &config, const MechanismSpec &spec,
                   RefStream &stream, const SimState *warm,
                   std::uint64_t take, SimState *end_state)
{
    FunctionalSimulator sim(config, spec);
    if (warm)
        sim.restore(*warm);
    SimResult start = sim.result();
    std::uint64_t processed = 0;
    simulateUpTo(sim, stream, take, processed);
    SimResult delta = counterDelta(sim.result(), start);
    // Window attribution: every reference fed in this window — and
    // none from the restored prefix — lands in the delta, or sharded
    // merges would drift from the unsharded run.
    TLBPF_DCHECK_MSG(delta.refs == processed,
                     "window of ", processed, " refs recorded ",
                     delta.refs, " in its counter delta");
    if (end_state)
        *end_state = sim.snapshot();
    return delta;
}

} // namespace tlbpf
