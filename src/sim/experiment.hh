/**
 * @file
 * Experiment drivers shared by the bench binaries: the standard
 * mechanism configurations from the paper's figures (as spec-string
 * tables resolved against the MechanismRegistry), and one-call
 * helpers that build an application model and simulate it.
 */

#ifndef TLBPF_SIM_EXPERIMENT_HH
#define TLBPF_SIM_EXPERIMENT_HH

#include <string>
#include <vector>

#include "prefetch/mech_spec.hh"
#include "sim/functional_sim.hh"
#include "sim/timing_sim.hh"
#include "workload/app_registry.hh"
#include "workload/workload_spec.hh"

namespace tlbpf
{

/** Default per-application reference budget for the benches. */
constexpr std::uint64_t kDefaultBenchRefs = 1'000'000;

/**
 * The mechanism configurations plotted in Figures 7/8, in legend
 * order: RP; MP with r in {1024,512,256} and D/4/2/F variants; DP with
 * r in {1024..32} direct-mapped; ASP with r in {1024..32}.
 */
std::vector<MechanismSpec> figure7Specs();

/** Compact comparison set: DP, RP, ASP, MP at r=256 D, s=2 (Table 2). */
std::vector<MechanismSpec> table2Specs();

/** Run one workload under one mechanism (functional). */
SimResult runFunctional(const WorkloadSpec &workload,
                        const MechanismSpec &spec, std::uint64_t refs,
                        const SimConfig &config = SimConfig{});

/** Run one workload under the timing model. */
TimingResult runTimed(const WorkloadSpec &workload,
                      const MechanismSpec &spec, std::uint64_t refs,
                      const SimConfig &config = SimConfig{},
                      const TimingConfig &timing = TimingConfig{});

/** A (mechanism label, accuracy) cell for figure-style output. */
struct AccuracyCell
{
    std::string label;
    double accuracy = 0.0;
    double missRate = 0.0;
};

/**
 * Evaluate @p specs against one workload; cells in spec order.  With
 * @p threads > 1 the cells run on a SweepEngine; the output is
 * bit-identical to the serial run (threads == 1) by the engine's
 * determinism contract.  threads == 0 selects hardware concurrency.
 */
std::vector<AccuracyCell>
accuracySweep(const WorkloadSpec &workload,
              const std::vector<MechanismSpec> &specs,
              std::uint64_t refs,
              const SimConfig &config = SimConfig{},
              unsigned threads = 1);

} // namespace tlbpf

#endif // TLBPF_SIM_EXPERIMENT_HH
