/**
 * @file
 * Timing simulator — the sim-outorder analogue behind the paper's
 * Table 3 (normalised execution cycles, RP vs DP).  It is the
 * simulator core (sim/core.hh) with one back-end whose clock counts
 * cycles, fed one reference at a time for each reference's
 * instruction count.
 *
 * Cycle model, following Section 3.2 exactly:
 *  - the CPU retires instructions at a base CPI; time advances with the
 *    reference stream's instruction counts plus accumulated stalls;
 *  - a TLB miss that hits the prefetch buffer stalls only until the
 *    in-flight prefetch completes (zero if it already has);
 *  - a full miss pays a constant 100-cycle penalty, and its demand
 *    fetch is delayed further if previously issued prefetch traffic is
 *    still in flight;
 *  - every prefetch memory operation (RP's pointer manipulations, and
 *    PTE fetches for all schemes) costs 50 cycles on a serialising
 *    channel that contends only with other prefetch traffic — the
 *    paper's deliberately RP-favouring bias;
 *  - RP's benefit of the doubt: if earlier prefetch traffic is still in
 *    flight at miss time, RP performs only its (up to) 4 pointer
 *    updates and skips the 2 neighbour fetches.
 *
 * Because the front-end is shared with the functional simulator, the
 * SimConfig ablations apply here too: a context switch flushes the
 * TLB, the buffer and the prefetcher (the channel keeps its in-flight
 * traffic), and under trainOnAllRefs the prefetches a hit triggers go
 * through the same channel.  So the functional counters of a timed
 * run equal simulate()'s for every mechanism that never drops
 * prefetches when busy.
 */

#ifndef TLBPF_SIM_TIMING_SIM_HH
#define TLBPF_SIM_TIMING_SIM_HH

#include "prefetch/mech_spec.hh"
#include "sim/functional_sim.hh"
#include "trace/ref_stream.hh"

namespace tlbpf
{

/** Cycle-model parameters (paper defaults). */
struct TimingConfig
{
    double baseCpi = 1.0;     ///< cycles per instruction, no TLB stalls
    Tick missPenalty = 100;   ///< constant TLB miss penalty
    Tick memOpCost = 50;      ///< per prefetch/state memory operation
};

/** Timing counters. */
struct TimingResult
{
    SimResult functional;       ///< the same counters as the fast sim
    Tick cycles = 0;            ///< total execution cycles
    Tick stallCycles = 0;       ///< cycles lost to TLB handling
    Tick computeCycles = 0;     ///< icount * baseCpi
    std::uint64_t memoryOps = 0;///< prefetch-channel operations
    std::uint64_t prefetchesSkippedBusy = 0; ///< RP benefit-of-doubt
    std::uint64_t inFlightHits = 0; ///< buffer hits that still stalled

    /** Counter-for-counter equality (bit-identity assertions). */
    bool operator==(const TimingResult &other) const = default;
};

/** Run a stream to exhaustion under the timing model. */
TimingResult simulateTimed(const SimConfig &config,
                           const TimingConfig &timing,
                           const MechanismSpec &spec,
                           RefStream &stream);

} // namespace tlbpf

#endif // TLBPF_SIM_TIMING_SIM_HH
