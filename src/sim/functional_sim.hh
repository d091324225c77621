/**
 * @file
 * Functional TLB-prefetching simulator — the sim-cache analogue the
 * paper uses for its prediction-accuracy results (Figures 7-9,
 * Table 2) — and the simulate entry points, all built on the
 * simulator core (sim/core.hh).
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
 *
 * A FunctionalSimulator is a core front-end with one back-end whose
 * mechanism shares the front-end's page table; it alone checkpoints.
 * simulateMany() is a front-end with one back-end per mechanism.
 */

#ifndef TLBPF_SIM_FUNCTIONAL_SIM_HH
#define TLBPF_SIM_FUNCTIONAL_SIM_HH

#include <cstdint>
#include <string>
#include <vector>

#include "prefetch/mech_spec.hh"
#include "sim/core.hh"
#include "trace/ref_stream.hh"

namespace tlbpf
{

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

    /** Feed one reference. */
    void process(const MemRef &ref) { _core.process(ref); }

    /**
     * Feed up to @p max_refs references of @p stream, as page runs
     * cut at context switches, or per reference when the mechanism
     * trains on hits; returns how many were fed, fewer only at end
     * of stream.
     */
    std::uint64_t
    feed(RefStream &stream, std::uint64_t max_refs)
    {
        return _core.feed(stream, max_refs);
    }

    /** Counters so far. */
    SimResult result() const { return _core.result(0); }

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

    const Tlb &tlb() const { return _core.tlb(); }
    const PrefetchBuffer &buffer() const { return _core.back(0).buffer(); }

  private:
    FrontEnd<NoClock> _core;
    std::string _mechLabel;
};

/** Run @p stream to exhaustion under @p spec and return the counters. */
SimResult simulate(const SimConfig &config, const MechanismSpec &spec,
                   RefStream &stream);

/**
 * Run @p stream to exhaustion once under every mechanism in @p specs
 * — the single-pass multi-mechanism mode: one front-end drives one
 * back-end per mechanism, so result i is bit-identical to
 * simulate(config, specs[i], stream) over a fresh stream at a
 * fraction of the cost.  Each back-end's page table holds only what
 * its mechanism materialised (RP's stack links); footprintPages
 * counts the union of that and the front-end's table, as one table
 * would.
 */
std::vector<SimResult> simulateMany(const SimConfig &config,
                                    const std::vector<MechanismSpec> &specs,
                                    RefStream &stream);

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
