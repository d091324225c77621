/**
 * @file
 * The simulator core every functional, single-pass and timed cell runs
 * on: the paper's model (Section 2) split at the TLB.
 *
 *   - A FrontEnd pulls the reference stream (as page runs, or per
 *     reference when a back-end needs every reference), numbers pages,
 *     detects context switches and drives the TLB, the footprint page
 *     table and the mechanism-independent counters (refs, misses,
 *     contextSwitches).
 *   - Each BackEnd holds a prefetch buffer, one mechanism and its
 *     counters, and is the only code that handles a miss: probe the
 *     buffer, count a buffer hit or a demand fetch, hand the miss to
 *     the prefetcher and issue its targets (duplicates of the page,
 *     the TLB or the buffer suppressed).
 *   - A Clock is a compile-time policy each back-end carries.
 *     NoClock, the functional one, is empty, so the functional miss
 *     path compiles to no timing code at all; the cycle model's clock
 *     lives in timing_sim.cc.
 *
 * Why N back-ends can share one front-end: the TLB's contents do not
 * depend on the mechanism.  Every miss installs the missing page
 * whether or not the buffer held it, prefetches land only in the
 * buffer, and a context switch flushes at the same references for
 * every mechanism.  Back-ends only read the TLB, and each handles
 * miss i before the front-end moves on, so each sees the exact TLB a
 * lone run of its mechanism would.
 */

#ifndef TLBPF_SIM_CORE_HH
#define TLBPF_SIM_CORE_HH

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "mem/page_table.hh"
#include "prefetch/mech_spec.hh"
#include "prefetch/prefetcher.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"
#include "trace/ref_stream.hh"

namespace tlbpf
{

/** Geometry shared by the functional and timing simulators. */
struct SimConfig
{
    TlbConfig tlb{128, 0};        ///< paper default: 128-entry FA
    std::uint32_t pbEntries = 16; ///< paper default: b = 16
    std::uint64_t pageBytes = kDefaultPageBytes;
    /**
     * Ablation switch: feed the prefetcher the *full reference
     * stream* instead of only the TLB miss stream.  The paper places
     * every mechanism after the TLB (miss stream only) and remarks
     * that this "does not seem to penalize DP in any significant
     * way"; this flag lets the ablation bench quantify that.  Only
     * meaningful for the on-chip schemes (RP's stack semantics are
     * tied to TLB evictions, so it ignores the flag).
     */
    bool trainOnAllRefs = false;
    /**
     * Multiprogramming model (the paper's "ongoing work" on flushing
     * or switching the prefetch tables): every this many references a
     * context switch flushes the TLB, the prefetch buffer and the
     * prefetcher's on-chip prediction state.  0 disables switching.
     * RP's in-memory stack survives a flush in reality; the reset
     * here conservatively clears it too, modelling a different
     * process's page table becoming active.
     */
    std::uint64_t contextSwitchInterval = 0;

    bool operator==(const SimConfig &other) const = default;
};

/** Counters produced by a simulation run. */
struct SimResult
{
    std::uint64_t refs = 0;
    std::uint64_t misses = 0;       ///< TLB misses (incl. buffer hits)
    std::uint64_t pbHits = 0;       ///< misses satisfied by the buffer
    std::uint64_t demandFetches = 0;
    std::uint64_t prefetchesIssued = 0;
    std::uint64_t prefetchesSuppressed = 0; ///< duplicate targets
    std::uint64_t stateOps = 0;     ///< RP pointer-word traffic
    std::uint64_t pbEvictedUnused = 0;
    std::uint64_t footprintPages = 0;
    std::uint64_t contextSwitches = 0;

    /** Counter-for-counter equality (bit-identity assertions). */
    bool operator==(const SimResult &other) const = default;

    /** TLB miss rate per reference. */
    double
    missRate() const
    {
        return refs ? static_cast<double>(misses) /
                          static_cast<double>(refs)
                    : 0.0;
    }

    /** The paper's prediction accuracy metric. */
    double
    accuracy() const
    {
        return misses ? static_cast<double>(pbHits) /
                            static_cast<double>(misses)
                      : 0.0;
    }

    /** Memory operations per miss (state + prefetch fetches). */
    double
    memOpsPerMiss() const
    {
        return misses ? static_cast<double>(stateOps +
                                            prefetchesIssued) /
                            static_cast<double>(misses)
                      : 0.0;
    }
};

/** One SimResult counter: its service-protocol name and its member. */
struct SimCounter
{
    const char *name;
    std::uint64_t SimResult::*member;
};

/**
 * Every SimResult counter, in declaration order: the one field list
 * that checkpoints, the service protocol and the shard merge walk.
 * Its order is the checkpoint byte order and the JSON key order.
 */
inline constexpr std::array<SimCounter, 10> kSimCounters{{
    {"refs", &SimResult::refs},
    {"misses", &SimResult::misses},
    {"pb_hits", &SimResult::pbHits},
    {"demand_fetches", &SimResult::demandFetches},
    {"prefetches_issued", &SimResult::prefetchesIssued},
    {"prefetches_suppressed", &SimResult::prefetchesSuppressed},
    {"state_ops", &SimResult::stateOps},
    {"pb_evicted_unused", &SimResult::pbEvictedUnused},
    {"footprint_pages", &SimResult::footprintPages},
    {"context_switches", &SimResult::contextSwitches},
}};
static_assert(sizeof(SimResult) ==
                  kSimCounters.size() * sizeof(std::uint64_t),
              "a SimResult counter is missing from kSimCounters");

/**
 * Add every counter of @p from into @p into — the reduce step that
 * merges sharded cells.  All SimResult fields are monotone counters
 * (footprintPages and pbEvictedUnused included), so summing the
 * per-window deltas of a partition of [0, refs) reproduces the
 * unsharded run's counters bit-for-bit.
 */
inline void
addCounters(SimResult &into, const SimResult &from)
{
    for (const SimCounter &counter : kSimCounters)
        into.*counter.member += from.*counter.member;
}

/**
 * References pulled per nextBatch call by the batched simulate loops:
 * large enough to amortise the virtual dispatch, small enough that the
 * block stays cache-resident while it is consumed.
 */
constexpr std::size_t kSimBatchRefs = 4096;

/** Page runs pulled per nextRuns call by the run-driven loops. */
constexpr std::size_t kSimBatchRuns = 1024;

/** The functional clock: no time passes, so every hook is empty. */
struct NoClock
{
    static constexpr bool kPerReference = false;

    void arrive() {}
    void bufferHit(Tick) {}
    void demandFetch() {}
    bool busy() const { return false; }
    void stateOps(unsigned) {}
    void skipped(std::size_t) {}
    Tick prefetchReady() const { return 0; }
    void prefetchIssued() {}
};

/**
 * The mechanism-dependent half of the simulator: a prefetch buffer,
 * the prefetcher, the counters they drive, and a @p Clock that times
 * them.  Owned by a FrontEnd, which calls in on every TLB miss and,
 * under trainOnAllRefs, on the hits the mechanism observes.
 */
template <typename Clock>
class BackEnd
{
  public:
    /**
     * The mechanism keeps its page-table state (RP's stack links) in
     * @p shared_pt, or in a table of its own when that is null.
     */
    BackEnd(const SimConfig &config, const MechanismSpec &spec,
            PageTable *shared_pt, const Clock &clock)
        : _ownPt(shared_pt ? nullptr : std::make_unique<PageTable>()),
          _buffer(config.pbEntries),
          _prefetcher(spec.build(shared_pt ? *shared_pt : *_ownPt)),
          // RP's stack is defined by TLB evictions: it sees no hits.
          _trainsOnHits(config.trainOnAllRefs && _prefetcher &&
                        _prefetcher->name() != "RP"),
          _clock(clock)
    {
    }

    bool trainsOnHits() const { return _trainsOnHits; }

    /** A reference at instruction count @p icount has arrived. */
    void reference(std::uint64_t icount) { _clock.reference(icount); }

    /** Context switch: the front-end flushes its TLB itself. */
    void
    flush()
    {
        _buffer.flush();
        if (_prefetcher)
            _prefetcher->reset();
    }

    /**
     * TLB miss to @p vpn by @p pc, which @p tlb has just installed,
     * evicting @p evicted (kNoPage if nothing).
     */
    void
    onMiss(Vpn vpn, Addr pc, Vpn evicted, const Tlb &tlb)
    {
        _clock.arrive();
        Tick ready_at = 0;
        bool pb_hit = _buffer.hitAndPromote(vpn, ready_at);
        if (pb_hit) {
            ++_counters.pbHits;
            _clock.bufferHit(ready_at);
        } else {
            ++_counters.demandFetches;
            _clock.demandFetch();
        }
        if (_prefetcher)
            predict(TlbMiss{vpn, pc, pb_hit, evicted}, true, tlb);
    }

    /** TLB hit to @p vpn by @p pc, seen only when trainsOnHits(). */
    void
    onHit(Vpn vpn, Addr pc, const Tlb &tlb)
    {
        _clock.arrive();
        predict(TlbMiss{vpn, pc, false, kNoPage}, false, tlb);
    }

    /**
     * The mechanism's counters, completed by the front-end's @p shared
     * ones.  The footprint is every page the front-end or the
     * mechanism materialised, as one shared table would hold.
     */
    SimResult
    result(const SimResult &shared, const PageTable &shared_pt) const
    {
        SimResult r = _counters;
        addCounters(r, shared);
        r.footprintPages =
            _ownPt ? shared_pt.unionSize(*_ownPt) : shared_pt.size();
        r.pbEvictedUnused = _buffer.evictedUnused();
        return r;
    }

    /** The counters this back-end drives (the rest read zero). */
    SimResult &counters() { return _counters; }
    PrefetchBuffer &buffer() { return _buffer; }
    const PrefetchBuffer &buffer() const { return _buffer; }
    Prefetcher *prefetcher() const { return _prefetcher.get(); }
    const Clock &clock() const { return _clock; }

  private:
    /**
     * Ask the mechanism about @p miss and issue its targets.  State
     * traffic is counted on misses only (@p on_miss).  A mechanism
     * that drops prefetches when busy does so if the clock's channel
     * was busy as the reference arrived.
     */
    void
    predict(const TlbMiss &miss, bool on_miss, const Tlb &tlb)
    {
        bool busy = _clock.busy();
        _decision.clear();
        _prefetcher->onMiss(miss, _decision);
        if (on_miss) {
            _counters.stateOps += _decision.stateOps;
            _clock.stateOps(_decision.stateOps);
        }
        if (busy && _prefetcher->dropPrefetchesWhenBusy()) {
            _clock.skipped(_decision.targets.size());
            return;
        }
        for (Vpn target : _decision.targets) {
            if (target != miss.vpn && !tlb.contains(target) &&
                _buffer.insertIfAbsent(target, _clock.prefetchReady())) {
                ++_counters.prefetchesIssued;
                _clock.prefetchIssued();
            } else {
                ++_counters.prefetchesSuppressed;
            }
        }
    }

    std::unique_ptr<PageTable> _ownPt;
    PrefetchBuffer _buffer;
    std::unique_ptr<Prefetcher> _prefetcher;
    bool _trainsOnHits;
    Clock _clock;
    PrefetchDecision _decision;
    SimResult _counters;
};

/**
 * The mechanism-independent half of the simulator, driving one
 * BackEnd per mechanism.  A lone back-end shares the front-end's page
 * table, so a single mechanism's state is one table (and one
 * checkpoint); several each get their own.
 */
template <typename Clock>
class FrontEnd
{
  public:
    FrontEnd(const SimConfig &config,
             std::span<const MechanismSpec> specs,
             const Clock &clock = Clock{})
        : _config(config),
          _pageShift(pageShiftOf(config.pageBytes)),
          _tlb(config.tlb)
    {
        _backs.reserve(specs.size());
        for (const MechanismSpec &spec : specs) {
            _backs.emplace_back(config, spec,
                                specs.size() == 1 ? &_pt : nullptr,
                                clock);
            _perReference |= _backs.back().trainsOnHits();
        }
        _hitTrainers = _perReference;
        _perReference |= Clock::kPerReference;
    }

    // Pinned: a lone back-end's mechanism holds a reference to _pt.
    FrontEnd(const FrontEnd &) = delete;
    FrontEnd &operator=(const FrontEnd &) = delete;

    /** Feed one reference. */
    void
    process(const MemRef &ref)
    {
        step(pageNumber(ref.vaddr, _pageShift, _config.pageBytes),
             ref.pc, 1, ref.icount);
    }

    /**
     * Feed up to @p max_refs references of @p stream; returns how
     * many were fed, fewer only at end of stream.  Runs come from
     * nextRuns() with each call's budget cut at the next context
     * switch, so no run crosses one and the reference after a flush
     * starts a run that carries its own PC.  When a back-end needs
     * every reference (its mechanism trains on hits and needs each
     * PC, or its clock each instruction count) every reference is its
     * own run, pulled with nextBatch().
     */
    std::uint64_t
    feed(RefStream &stream, std::uint64_t max_refs)
    {
        std::uint64_t fed = 0;
        if (_perReference) {
            std::vector<MemRef> block(kSimBatchRefs);
            while (fed < max_refs) {
                std::size_t want = static_cast<std::size_t>(
                    std::min<std::uint64_t>(max_refs - fed,
                                            block.size()));
                std::size_t got = stream.nextBatch(block.data(), want);
                for (std::size_t i = 0; i < got; ++i)
                    process(block[i]);
                fed += got;
                if (got < want)
                    break;
            }
            return fed;
        }
        const std::uint64_t interval = _config.contextSwitchInterval;
        std::vector<PageRun> runs(kSimBatchRuns);
        while (fed < max_refs) {
            std::uint64_t want = max_refs - fed;
            if (interval)
                want = std::min(want,
                                interval - _counters.refs % interval);
            std::size_t got = stream.nextRuns(
                runs.data(), runs.size(), _config.pageBytes, want);
            std::uint64_t refs = 0;
            for (std::size_t i = 0; i < got; ++i) {
                step(runs[i].vpn, runs[i].pc, runs[i].count, 0);
                refs += runs[i].count;
            }
            fed += refs;
            if (got < runs.size() && refs < want)
                break; // short of both budgets: end of stream
        }
        return fed;
    }

    /** Back-end @p i's full counters. */
    SimResult
    result(std::size_t i) const
    {
        return _backs[i].result(_counters, _pt);
    }

    const SimConfig &config() const { return _config; }
    /** refs, misses and contextSwitches; the rest read zero. */
    SimResult &counters() { return _counters; }
    Tlb &tlb() { return _tlb; }
    const Tlb &tlb() const { return _tlb; }
    PageTable &pageTable() { return _pt; }
    const PageTable &pageTable() const { return _pt; }
    std::size_t size() const { return _backs.size(); }
    BackEnd<Clock> &back(std::size_t i) { return _backs[i]; }
    const BackEnd<Clock> &back(std::size_t i) const { return _backs[i]; }

  private:
    /**
     * @p count consecutive references to page @p vpn, the first at
     * @p pc and instruction count @p icount.  No context switch falls
     * inside the run, and @p count is 1 when a back-end needs every
     * reference.  Only the first reference can miss; the rest are
     * hits that advance the TLB's recency clock.
     */
    void
    step(Vpn vpn, Addr pc, std::uint64_t count, std::uint64_t icount)
    {
        if (_config.contextSwitchInterval && _counters.refs > 0 &&
            _counters.refs % _config.contextSwitchInterval == 0) {
            _tlb.flush();
            for (BackEnd<Clock> &back : _backs)
                back.flush();
            ++_counters.contextSwitches;
        }
        _counters.refs += count;
        if constexpr (Clock::kPerReference)
            for (BackEnd<Clock> &back : _backs)
                back.reference(icount);

        if (_tlb.access(vpn, count)) {
            if (_hitTrainers)
                for (BackEnd<Clock> &back : _backs)
                    if (back.trainsOnHits())
                        back.onHit(vpn, pc, _tlb);
            return;
        }

        ++_counters.misses;
        _pt.lookup(vpn); // materialise the translation
        Vpn evicted = _tlb.insert(vpn).value_or(kNoPage);
        // Lockstep: every back-end handles this miss against the
        // exact TLB before the next reference probes it.
        for (BackEnd<Clock> &back : _backs)
            back.onMiss(vpn, pc, evicted, _tlb);
        // The rest of the run hits the page just installed.
        if (count > 1)
            _tlb.access(vpn, count - 1);
    }

    SimConfig _config;
    /** pageShiftOf(pageBytes). */
    std::uint32_t _pageShift;
    PageTable _pt;
    Tlb _tlb;
    SimResult _counters;
    std::vector<BackEnd<Clock>> _backs;
    /** Some back-end's mechanism observes TLB hits. */
    bool _hitTrainers = false;
    /** Some back-end needs every reference, not page runs. */
    bool _perReference = false;
};

} // namespace tlbpf

#endif // TLBPF_SIM_CORE_HH
