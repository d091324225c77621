#include "sim/functional_sim.hh"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "util/check.hh"

namespace tlbpf
{

namespace
{

/** A context switch falls before reference @p refs (0-based). */
inline bool
switchDue(const SimConfig &config, std::uint64_t refs)
{
    return config.contextSwitchInterval && refs > 0 &&
           refs % config.contextSwitchInterval == 0;
}

/**
 * Pull up to @p max_refs references from @p stream and hand them to
 * @p run(vpn, pc, count); @p done references were simulated before.
 * Runs come from nextRuns() with each call's budget cut at the next
 * context switch, so no run crosses one and the reference after a
 * flush starts a run that carries its own PC.  With @p per_ref every
 * reference is its own run, pulled with nextBatch(): a mechanism that
 * trains on hits needs every reference's PC.  Returns the references
 * fed, fewer than @p max_refs only at end of stream.
 */
template <typename RunFn>
std::uint64_t
drainStream(RefStream &stream, const SimConfig &config, bool per_ref,
            std::uint64_t done, std::uint64_t max_refs, RunFn &&run)
{
    std::uint64_t fed = 0;
    if (per_ref) {
        const std::uint32_t shift = pageShiftOf(config.pageBytes);
        std::vector<MemRef> block(kSimBatchRefs);
        while (fed < max_refs) {
            std::size_t want = static_cast<std::size_t>(
                std::min<std::uint64_t>(max_refs - fed, block.size()));
            std::size_t got = stream.nextBatch(block.data(), want);
            for (std::size_t i = 0; i < got; ++i)
                run(pageNumber(block[i].vaddr, shift, config.pageBytes),
                    block[i].pc, 1);
            fed += got;
            if (got < want)
                break;
        }
        return fed;
    }
    const std::uint64_t interval = config.contextSwitchInterval;
    std::vector<PageRun> runs(kSimBatchRuns);
    while (fed < max_refs) {
        std::uint64_t want = max_refs - fed;
        if (interval)
            want = std::min(want, interval - (done + fed) % interval);
        std::size_t got = stream.nextRuns(runs.data(), runs.size(),
                                          config.pageBytes, want);
        std::uint64_t refs = 0;
        for (std::size_t i = 0; i < got; ++i) {
            run(runs[i].vpn, runs[i].pc, runs[i].count);
            refs += runs[i].count;
        }
        fed += refs;
        if (got < runs.size() && refs < want)
            break; // short of both budgets: end of stream
    }
    return fed;
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

void
FunctionalSimulator::process(const MemRef &ref)
{
    processRun(pageNumber(ref.vaddr, _pageShift, _config.pageBytes),
               ref.pc, 1);
}

void
FunctionalSimulator::processRun(Vpn vpn, Addr pc, std::uint64_t count)
{
    TLBPF_DCHECK_MSG(count == 1 || !_trainsOnHits,
                     "a hit-training mechanism takes one reference "
                     "per run, got ", count);
    if (switchDue(_config, _result.refs)) {
        _tlb.flush();
        _buffer.flush();
        if (_prefetcher)
            _prefetcher->reset();
        ++_result.contextSwitches;
    }
    _result.refs += count;

    if (_tlb.access(vpn, count)) {
        // Ablation mode: the prefetcher observes hits as well (it sits
        // on the reference stream rather than the miss stream).
        if (_trainsOnHits) {
            _decision.clear();
            TlbMiss observed{vpn, pc, false, kNoPage};
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

    if (_prefetcher) {
        _decision.clear();
        TlbMiss miss{vpn, pc, pb_hit, evicted.value_or(kNoPage)};
        _prefetcher->onMiss(miss, _decision);
        _result.stateOps += _decision.stateOps;
        issuePrefetches(_decision.targets, vpn, _tlb, _buffer, _result);
    }
    // The rest of the run hits the page just installed.
    if (count > 1)
        _tlb.access(vpn, count - 1);
}

std::uint64_t
FunctionalSimulator::feed(RefStream &stream, std::uint64_t max_refs)
{
    return drainStream(stream, _config, _trainsOnHits, _result.refs,
                       max_refs,
                       [this](Vpn vpn, Addr pc, std::uint64_t count) {
                           processRun(vpn, pc, count);
                       });
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
    sim.feed(stream, UINT64_MAX);
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

    Tlb tlb(config.tlb);
    PageTable pt;
    SimResult shared;
    // Page runs unless a back-end trains on hits: it needs every
    // reference's PC, so the front-end then runs per reference.
    drainStream(
        stream, config, !hit_trainers.empty(), 0, UINT64_MAX,
        [&](Vpn vpn, Addr pc, std::uint64_t count) {
            if (switchDue(config, shared.refs)) {
                tlb.flush();
                for (MissBackEnd &back : backs)
                    back.flush();
                ++shared.contextSwitches;
            }
            shared.refs += count;

            if (tlb.access(vpn, count)) {
                for (MissBackEnd *back : hit_trainers)
                    back->onHit(vpn, pc, tlb);
                return;
            }

            ++shared.misses;
            pt.lookup(vpn); // materialise the translation
            Vpn evicted = tlb.insert(vpn).value_or(kNoPage);
            // Lockstep: every back-end handles this miss against the
            // exact shared TLB before the next reference probes it.
            for (MissBackEnd &back : backs)
                back.onMiss(vpn, pc, evicted, tlb);
            // The rest of the run hits the page just installed.
            if (count > 1)
                tlb.access(vpn, count - 1);
        });

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

} // namespace

SimResult
simulateWindow(const SimConfig &config, const MechanismSpec &spec,
               RefStream &stream, std::uint64_t skip,
               std::uint64_t take)
{
    FunctionalSimulator sim(config, spec);
    sim.feed(stream, skip);
    SimResult start = sim.result();
    sim.feed(stream, take);
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
    std::uint64_t processed = sim.feed(stream, take);
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
