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
 *
 * Size families.  Back-ends whose specs name one registry entry with
 * the same parameters apart from `rows` (say DP,32,D .. DP,1024,D)
 * form a family, if their mechanism takes part (Prefetcher::adopt;
 * DP, ASP and MP do).  Only the family's leader, its smallest member
 * that has not yet evicted a table row, runs; the larger members
 * follow, and a follower's result is the leader's.  This is exact:
 *
 *   - Set counts are powers of two, so the keys that share a set of a
 *     larger table also share one of the smaller table, and a set of
 *     the larger has at least as many ways.  Fed the same keys, the
 *     larger table evicts only where the smaller would already have
 *     had to.
 *   - While the leader evicts nothing, both tables hold every key
 *     inserted since the last flush, with the same payloads, use
 *     clocks and counters.  Every lookup hits or misses alike, so
 *     both mechanisms predict the same targets, and the buffers and
 *     counters they drive stay equal too.
 *
 * Before each miss (and each trained hit) the front-end asks every
 * leader whether handling it would evict a row.  If so, the next
 * member adopts the leader's state (BackEnd::adopt: buffer, counters,
 * clock, and the mechanism's table placed in its own geometry), runs
 * from then on like any other back-end, and leads the rest; the check
 * repeats, so one miss can split off several members.  A flush keeps
 * followers following: a lone run would flush to the same state.  A
 * family whose members have all split off is dropped, and a front-end
 * with one back-end has no families, so neither pays per miss.
 * Snapshots cover a lone back-end only, so a follower is never
 * serialized.
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

    /**
     * Size families: become what a lone run of this back-end would
     * hold now, given @p smaller, the next smaller member of its
     * family, which has never evicted a table row: its buffer,
     * counters and clock, and its mechanism's state in this
     * back-end's table geometry.  Family mechanisms keep no
     * page-table state, so there is none to copy.
     */
    void
    adopt(const BackEnd &smaller)
    {
        _buffer = smaller._buffer;
        _counters = smaller._counters;
        _clock = smaller._clock;
        bool adopted = _prefetcher->adopt(*smaller._prefetcher);
        tlbpf_assert(adopted, "back-end adopted a non-family member");
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
        _leaderOf.resize(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i)
            _leaderOf[i] = i;
        formFamilies(specs);
        for (std::size_t i = 0; i < specs.size(); ++i)
            if (_leaderOf[i] == i)
                _running.push_back(i);
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

    /** Back-end @p i's full counters (its leader's, if it follows). */
    SimResult
    result(std::size_t i) const
    {
        return _backs[_leaderOf[i]].result(_counters, _pt);
    }

    /** Back-ends that run: every one but the size-family followers. */
    std::size_t running() const { return _running.size(); }

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
    /** Members of one size family, by back-end index. */
    struct Family
    {
        std::vector<std::size_t> members; ///< ascending rows
        std::size_t lead = 0; ///< position of the leader in members
    };

    /**
     * Whether @p a and @p b name one registry entry with the same
     * parameters apart from `rows`, which both have: the specs of one
     * size family.
     */
    static bool
    sameSizeFamily(const MechanismSpec &a, const MechanismSpec &b)
    {
        if (a.name != b.name || !a.children.empty() ||
            !b.children.empty() || a.params.size() != b.params.size())
            return false;
        bool has_rows = false;
        for (std::size_t i = 0; i < a.params.size(); ++i) {
            if (a.params[i].first != b.params[i].first)
                return false;
            if (a.params[i].first == "rows")
                has_rows = true;
            else if (a.params[i].second != b.params[i].second)
                return false;
        }
        return has_rows;
    }

    /**
     * Group the back-ends into size families: the specs of each
     * family sorted by rows, kept if every member adopts the one
     * before it.  All members are fresh, so that probe changes no
     * state.
     */
    void
    formFamilies(std::span<const MechanismSpec> specs)
    {
        std::vector<bool> placed(specs.size(), false);
        for (std::size_t i = 0; i < specs.size(); ++i) {
            if (placed[i] || !_backs[i].prefetcher())
                continue;
            Family family;
            for (std::size_t j = i; j < specs.size(); ++j)
                if (!placed[j] && sameSizeFamily(specs[i], specs[j]))
                    family.members.push_back(j);
            if (family.members.size() < 2)
                continue;
            std::vector<std::size_t> &m = family.members;
            std::stable_sort(m.begin(), m.end(),
                             [&](std::size_t a, std::size_t b) {
                                 return specs[a].uintParam("rows") <
                                        specs[b].uintParam("rows");
                             });
            bool adopts = true;
            for (std::size_t k = 1; k < m.size() && adopts; ++k)
                adopts = _backs[m[k]].prefetcher()->adopt(
                    *_backs[m[k - 1]].prefetcher());
            if (!adopts)
                continue;
            for (std::size_t member : m) {
                placed[member] = true;
                _leaderOf[member] = m.front();
            }
            _families.push_back(std::move(family));
        }
    }

    /**
     * Before the back-ends see a miss, or a trained hit, to @p vpn by
     * @p pc: while a family's leader would evict a table row on it,
     * the next member adopts the leader's state and leads from here
     * on.  (A family of mechanisms that do not train on hits would
     * split early on a hit, which is exact too; only RP, which has no
     * table, ignores hits.)
     */
    void
    splitFamilies(Vpn vpn, Addr pc)
    {
        for (std::size_t f = 0; f < _families.size();) {
            Family &family = _families[f];
            const std::vector<std::size_t> &m = family.members;
            while (family.lead + 1 < m.size() &&
                   _backs[m[family.lead]].prefetcher()->wouldEvict(
                       vpn, pc)) {
                std::size_t next = m[family.lead + 1];
                _backs[next].adopt(_backs[m[family.lead]]);
                ++family.lead;
                for (std::size_t k = family.lead; k < m.size(); ++k)
                    _leaderOf[m[k]] = next;
                _running.insert(std::upper_bound(_running.begin(),
                                                 _running.end(), next),
                                next);
            }
            if (family.lead + 1 == m.size())
                _families.erase(_families.begin() +
                                static_cast<std::ptrdiff_t>(f));
            else
                ++f;
        }
    }

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
            for (std::size_t i : _running)
                _backs[i].flush();
            ++_counters.contextSwitches;
        }
        _counters.refs += count;
        if constexpr (Clock::kPerReference)
            for (std::size_t i : _running)
                _backs[i].reference(icount);

        if (_tlb.access(vpn, count)) {
            if (_hitTrainers) {
                splitFamilies(vpn, pc);
                for (std::size_t i : _running)
                    if (_backs[i].trainsOnHits())
                        _backs[i].onHit(vpn, pc, _tlb);
            }
            return;
        }

        ++_counters.misses;
        _pt.lookup(vpn); // materialise the translation
        Vpn evicted = _tlb.insert(vpn).value_or(kNoPage);
        splitFamilies(vpn, pc);
        // Lockstep: every back-end handles this miss against the
        // exact TLB before the next reference probes it.
        for (std::size_t i : _running)
            _backs[i].onMiss(vpn, pc, evicted, _tlb);
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
    /** Back-ends that run, ascending: all but the followers. */
    std::vector<std::size_t> _running;
    /** The back-end whose result is back-end i's (i if it runs). */
    std::vector<std::size_t> _leaderOf;
    /** Size families with followers left. */
    std::vector<Family> _families;
    /** Some back-end's mechanism observes TLB hits. */
    bool _hitTrainers = false;
    /** Some back-end needs every reference, not page runs. */
    bool _perReference = false;
};

} // namespace tlbpf

#endif // TLBPF_SIM_CORE_HH
