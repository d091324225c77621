#include "sim/experiment.hh"

#include <stdexcept>

#include "run/sweep_engine.hh"
#include "util/logging.hh"

namespace tlbpf
{

namespace
{

std::vector<MechanismSpec>
parseSpecTable(const char *const *table, std::size_t n)
{
    std::vector<MechanismSpec> specs;
    specs.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        specs.push_back(MechanismSpec::parse(table[i]));
    return specs;
}

} // namespace

std::vector<MechanismSpec>
figure7Specs()
{
    // The figure legend, verbatim: each entry is a mechanism spec in
    // the registry's figure-legend grammar, so the list doubles as a
    // parse round-trip fixture (parse(label(s)) == s for all of them).
    static const char *const kLegend[] = {
        "RP",
        "MP,1024,D", "MP,1024,4", "MP,1024,2", "MP,512,D", "MP,512,4",
        "MP,256,D",  "MP,256,4",  "MP,256,F",
        "DP,1024,D", "DP,512,D",  "DP,256,D",  "DP,128,D", "DP,64,D",
        "DP,32,D",
        "ASP,1024,D", "ASP,512,D", "ASP,256,D", "ASP,128,D", "ASP,64,D",
        "ASP,32,D",
    };
    return parseSpecTable(kLegend, std::size(kLegend));
}

std::vector<MechanismSpec>
table2Specs()
{
    static const char *const kLegend[] = {
        "DP,256,D", "RP", "ASP,256,D", "MP,256,D",
    };
    return parseSpecTable(kLegend, std::size(kLegend));
}

namespace
{

/**
 * Run one cell on the calling thread, converting the engine's
 * std::invalid_argument (refs == 0, unknown app) back into the
 * fatal exit these entry points have always documented.
 */
SweepResult
runCellOrDie(const SweepJob &job)
{
    try {
        return runSweepJob(job);
    } catch (const std::invalid_argument &e) {
        tlbpf_fatal(e.what());
    }
}

} // namespace

SimResult
runFunctional(const WorkloadSpec &workload, const MechanismSpec &spec,
              std::uint64_t refs, const SimConfig &config)
{
    return runCellOrDie(
               SweepJob::functional(workload, spec, refs, config))
        .functional;
}

TimingResult
runTimed(const WorkloadSpec &workload, const MechanismSpec &spec,
         std::uint64_t refs, const SimConfig &config,
         const TimingConfig &timing)
{
    return runCellOrDie(
               SweepJob::timed(workload, spec, refs, config, timing))
        .timed;
}

std::vector<AccuracyCell>
accuracySweep(const WorkloadSpec &workload,
              const std::vector<MechanismSpec> &specs,
              std::uint64_t refs, const SimConfig &config,
              unsigned threads)
{
    std::vector<SweepJob> jobs;
    jobs.reserve(specs.size());
    for (const MechanismSpec &spec : specs)
        jobs.push_back(
            SweepJob::functional(workload, spec, refs, config));

    SweepEngine engine(threads);
    std::vector<SweepResult> results;
    try {
        // One workload, N mechanisms: the canonical single-pass
        // shape — the stream is generated once for all cells.
        results = engine.run(jobs, PassMode::SinglePass);
    } catch (const std::invalid_argument &e) {
        tlbpf_fatal(e.what());
    }

    std::vector<AccuracyCell> cells;
    cells.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i)
        cells.push_back(AccuracyCell{jobs[i].spec.label(),
                                     results[i].accuracy(),
                                     results[i].missRate()});
    return cells;
}

} // namespace tlbpf
