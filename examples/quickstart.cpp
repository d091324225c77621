/**
 * @file
 * Quickstart: simulate one application model under distance
 * prefetching and print the headline metrics.
 *
 *   $ ./quickstart [app] [refs]
 *
 * Walks through the three steps every user of the library takes:
 * build a reference stream, pick a prefetcher spec, run the
 * simulator.
 */

#include <cstdio>
#include <cstdlib>

#include "sim/experiment.hh"

int
main(int argc, char **argv)
{
    using namespace tlbpf;

    std::string app = argc > 1 ? argv[1] : "swim";
    std::uint64_t refs =
        argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1000000;

    // 1. A reference stream.  Here: one of the 56 built-in application
    //    models; anything implementing RefStream works.
    auto stream = buildApp(app, refs);
    std::printf("workload: %s (%s) — %s\n", app.c_str(),
                findApp(app).suite.c_str(), findApp(app).notes.c_str());

    // 2. A mechanism specification, resolved against the open
    //    MechanismRegistry.  The paper's recommended DP
    //    configuration: 256-row direct-mapped table, 2 slots.
    MechanismSpec dp = MechanismSpec::parse("dp(rows=256,assoc=dm)");

    // 3. Simulate: first without prefetching for the baseline, then
    //    with DP.
    MechanismSpec none = MechanismSpec::none();
    SimResult base = simulate(SimConfig{}, none, *stream);
    stream->reset();
    SimResult with_dp = simulate(SimConfig{}, dp, *stream);

    std::printf("references:          %llu\n",
                static_cast<unsigned long long>(base.refs));
    std::printf("TLB misses:          %llu (miss rate %.4f)\n",
                static_cast<unsigned long long>(base.misses),
                base.missRate());
    std::printf("footprint:           %llu pages\n",
                static_cast<unsigned long long>(base.footprintPages));
    std::printf("DP prediction accuracy: %.3f\n", with_dp.accuracy());
    std::printf("  (%llu of %llu misses were waiting in the prefetch "
                "buffer)\n",
                static_cast<unsigned long long>(with_dp.pbHits),
                static_cast<unsigned long long>(with_dp.misses));
    std::printf("prefetches issued:   %llu (%llu evicted unused)\n",
                static_cast<unsigned long long>(
                    with_dp.prefetchesIssued),
                static_cast<unsigned long long>(
                    with_dp.pbEvictedUnused));

    // And the cycle view (Table 3 methodology).
    TimingResult t_base = runTimed(WorkloadSpec::parse(app), none, refs);
    TimingResult t_dp = runTimed(WorkloadSpec::parse(app), dp, refs);
    std::printf("normalised cycles with DP: %.3f\n",
                static_cast<double>(t_dp.cycles) /
                    static_cast<double>(t_base.cycles));
    return 0;
}
