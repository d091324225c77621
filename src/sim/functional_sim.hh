/**
 * @file
 * Functional TLB-prefetching simulator — the sim-cache analogue the
 * paper uses for its prediction-accuracy results (Figures 7-9,
 * Table 2).
 *
 * Per-reference flow (paper Section 2):
 *   1. probe the TLB (and, conceptually in parallel, the prefetch
 *      buffer);
 *   2. on a TLB miss that hits the buffer, promote the entry into the
 *      TLB and count a successful prediction;
 *   3. on a full miss, demand-fetch the translation;
 *   4. either way, hand the miss to the prefetching mechanism, which
 *      may queue prefetches into the buffer (duplicates against the
 *      TLB and buffer suppressed).
 *
 * Prediction accuracy = buffer hits / TLB misses.
 */

#ifndef TLBPF_SIM_FUNCTIONAL_SIM_HH
#define TLBPF_SIM_FUNCTIONAL_SIM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/page_table.hh"
#include "prefetch/mech_spec.hh"
#include "prefetch/prefetcher.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/tlb.hh"
#include "trace/ref_stream.hh"
#include "util/snapshot.hh"

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

/**
 * A serialized simulator-state checkpoint: everything process() can
 * observe — counters, TLB, prefetch buffer, page table and mechanism
 * prediction state — as one stable byte string.  Produced by
 * FunctionalSimulator::snapshot() and consumed by restore() on a
 * simulator built from the same SimConfig and MechanismSpec, so a
 * run can be split at any reference boundary and continued
 * bit-identically (the checkpoint-chained shard warm-up in
 * SweepEngine::runSharded).
 */
struct SimState
{
    std::vector<std::uint8_t> bytes;

    bool empty() const { return bytes.empty(); }
};

/** Stepping functional simulator. */
class FunctionalSimulator
{
  public:
    FunctionalSimulator(const SimConfig &config,
                        const MechanismSpec &spec);

    /** Feed one reference: processRun() of a one-reference run. */
    void process(const MemRef &ref);

    /**
     * Feed @p count consecutive references to page @p vpn, the first
     * at @p pc: the same as process() on each of them, provided no
     * context switch falls inside the run and @p count is 1 when the
     * mechanism trains on hits (SimConfig::trainOnAllRefs; it sees
     * every reference's own PC).  Only the first reference can miss;
     * the rest are hits that advance the TLB's recency clock.
     */
    void processRun(Vpn vpn, Addr pc, std::uint64_t count);

    /**
     * Feed up to @p max_refs references of @p stream, as page runs
     * cut at context switches, or per reference when the mechanism
     * trains on hits; returns how many were fed, fewer only at end
     * of stream.
     */
    std::uint64_t feed(RefStream &stream, std::uint64_t max_refs);

    /** Counters so far (footprint refreshed on each call). */
    const SimResult &result();

    /**
     * True if the whole simulator state can round-trip through
     * snapshot()/restore(): always, unless the mechanism is an
     * open-registry entry that has not opted into checkpointing
     * (Prefetcher::checkpointable()).
     */
    bool checkpointable() const;

    /**
     * Serialize the exact simulator state.  Continuing a restored
     * simulator over the same remaining reference stream reproduces
     * the uninterrupted run's counters bit-for-bit.  Throws
     * std::invalid_argument if !checkpointable().
     */
    SimState snapshot() const;

    /**
     * Restore state captured by snapshot() on a simulator with the
     * same configuration and mechanism; throws std::invalid_argument
     * on a truncated/foreign checkpoint or a config/mechanism
     * mismatch.
     */
    void restore(const SimState &state);

    const Tlb &tlb() const { return _tlb; }
    const PrefetchBuffer &buffer() const { return _buffer; }
    const PageTable &pageTable() const { return _pt; }
    Prefetcher *prefetcher() { return _prefetcher.get(); }

  private:
    SimConfig _config;
    std::string _mechLabel;
    /** pageShiftOf(pageBytes). */
    std::uint32_t _pageShift = kNoPageShift;
    PageTable _pt;
    Tlb _tlb;
    PrefetchBuffer _buffer;
    std::unique_ptr<Prefetcher> _prefetcher;
    /** The prefetcher also observes TLB hits (trainOnAllRefs). */
    bool _trainsOnHits;
    PrefetchDecision _decision;
    SimResult _result;
};

/**
 * References pulled per nextBatch call by the batched simulate loops:
 * large enough to amortise the virtual dispatch, small enough that the
 * block stays cache-resident while it is consumed.
 */
constexpr std::size_t kSimBatchRefs = 4096;

/** Page runs pulled per nextRuns call by the run-driven loops. */
constexpr std::size_t kSimBatchRuns = 1024;

/** Run @p stream to exhaustion under @p spec and return the counters. */
SimResult simulate(const SimConfig &config, const MechanismSpec &spec,
                   RefStream &stream);

/**
 * Run @p stream to exhaustion once under every mechanism in @p specs
 * — the single-pass multi-mechanism mode.  Result i is bit-identical
 * to simulate(config, specs[i], stream) over a fresh stream, at a
 * fraction of the cost, because the simulator is split at the TLB:
 *
 *   - one shared front-end pulls the stream as page runs (per
 *     reference when a mechanism trains on hits), detects context
 *     switches and drives the only TLB and the page table that
 *     supplies footprintPages;
 *   - one back-end per mechanism holds a prefetch buffer, the
 *     prefetcher and its counters, and runs only on TLB misses (and,
 *     under trainOnAllRefs, on the hits its mechanism observes).
 *
 * Why this is exact: the TLB's contents do not depend on the
 * mechanism.  Every miss installs the missing page whether or not
 * the buffer held it, prefetches land only in the buffer, and a
 * buffer hit removes the page from the buffer but installs it in the
 * TLB exactly as a demand fetch would; a context switch flushes at
 * the same references for every mechanism.  Back-ends only *read* the TLB (duplicate suppression),
 * and each handles miss i before the front-end moves on, so every
 * read sees the exact TLB its own FunctionalSimulator would hold.  A
 * mechanism's page table holds only what the mechanism itself
 * materialised (RP's stack links); footprintPages counts the union
 * of that and the front-end's table, as one table would.
 *
 * FunctionalSimulator::process() is the per-reference oracle this
 * path is differentially tested against.
 */
std::vector<SimResult> simulateMany(const SimConfig &config,
                                    const std::vector<MechanismSpec> &specs,
                                    RefStream &stream);

/**
 * Add every counter of @p from into @p into — the reduce step that
 * merges sharded cells.  All SimResult fields are monotone counters
 * (footprintPages and pbEvictedUnused included), so summing the
 * per-window deltas of a partition of [0, refs) reproduces the
 * unsharded run's counters bit-for-bit.
 */
void addCounters(SimResult &into, const SimResult &from);

/**
 * Simulate a *window* of @p stream: the first @p skip references warm
 * the full simulator state by replay (exact, not approximated), the
 * next @p take references are recorded, and the returned result is
 * the counter delta over the recorded window.  Used by sharded cells;
 * shard k of N records window [k*refs/N, (k+1)*refs/N) so that the
 * merged counters equal the unsharded run exactly.
 */
SimResult simulateWindow(const SimConfig &config,
                         const MechanismSpec &spec, RefStream &stream,
                         std::uint64_t skip, std::uint64_t take);

/**
 * Simulate a window of @p stream starting from a checkpoint instead
 * of a prefix replay: the simulator is constructed fresh, warmed by
 * restoring @p warm (nullptr starts cold — the window begins at
 * reference 0), fed the next @p take references of @p stream (which
 * must already be positioned at the window start), and the counter
 * delta over the window is returned.  If @p end_state is non-null it
 * receives the end-of-window snapshot, ready to warm the next shard
 * in a checkpoint chain.  Chaining N windows this way reproduces the
 * serial run's counters bit-for-bit at ~1x total work, versus
 * ~(N+1)/2x for N prefix-replaying shards.
 */
SimResult simulateWindowFrom(const SimConfig &config,
                             const MechanismSpec &spec,
                             RefStream &stream, const SimState *warm,
                             std::uint64_t take, SimState *end_state);

} // namespace tlbpf

#endif // TLBPF_SIM_FUNCTIONAL_SIM_HH
