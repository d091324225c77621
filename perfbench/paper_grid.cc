/**
 * @file
 * paper_grid: the figure-regeneration batch.  The grid is the lead
 * app, every high-miss app in figure order, and 4 mid-miss and 3 more
 * low-miss apps (the middle app of each miss-rate bin of its stratum)
 * x the 21 Figure-7 mechanisms, run single-pass on an nproc-thread
 * engine, so the TLB, prefetch-buffer and mechanism layers dominate
 * and stream generation is amortised over 21 simulators.  Single-cell
 * DP probes of every app, in seeded order, follow it, half after one
 * run of the grid and half after the next; those two rounds are the
 * pass the measured window replays.
 */

#include <cstdio>
#include <utility>

#include "batch_workload.hh"
#include "sim/experiment.hh"

using namespace tlbpf;

namespace perfbench
{

namespace
{

constexpr std::size_t kMidApps = 4;
constexpr std::size_t kLowApps = 3;
constexpr std::size_t kProbeRounds = 2;
// The figure tools' budget (fig7_spec and tlbpf-client default to it).
constexpr std::uint64_t kRefs = kDefaultBenchRefs;

class PaperGrid : public BatchWorkload
{
  public:
    using BatchWorkload::BatchWorkload;

    void
    describeInputs() const override
    {
        _strata.describe();
        describeRounds();
    }

    LadderInputs
    ladderInputs() const override
    {
        LadderInputs in = ladderInputsFor(_options, _strata);
        in.batch = _rounds.front().grid;
        return in;
    }

  protected:
    void
    generate() override
    {
        _strata = classifyApps(_options);
        tlbpf::Rng rng(_options.seed ^ 0x7061706572ull);
        std::vector<MechanismSpec> specs = figure7Specs();
        std::uint64_t refs = scaledRefs(_options, kRefs);
        // The grid opens with the lead app, then every high-miss app
        // in figure order, as a figure run always emits its suite's
        // apps in one order; first_cell_p50 then times the same group
        // in every run.  The high-miss stratum is small (6 of 56 apps
        // at 1M references) and its groups dominate the grid's time,
        // so it is carried whole; the other strata are represented by
        // the middle app of each miss-rate bin.  The grid is the same
        // for every seed: per-app group cost differs ~7x and memory
        // ~17x, so a seeded pick of apps would make the time and
        // peak_rss_mb of a run a function of its seed.
        const std::string &lead = _strata.lead();
        std::vector<std::string> apps = {lead};
        for (const std::string &app : _strata.high)
            if (app != lead)
                apps.push_back(app);
        std::vector<std::string> low;
        for (const std::string &app : _strata.low)
            if (app != lead)
                low.push_back(app);
        for (const std::string &app : _strata.binCentres(_strata.mid, kMidApps))
            apps.push_back(app);
        for (const std::string &app : _strata.binCentres(low, kLowApps))
            apps.push_back(app);

        Batch grid;
        grid.mode = PassMode::SinglePass;
        for (const std::string &app : apps)
            for (const MechanismSpec &spec : specs)
                grid.jobs.push_back(SweepJob::functional(
                    WorkloadSpec::app(app), spec, refs));
        // Probes are one DP cell per app, every app in seeded order,
        // so their latency spread comes from the apps alone.  They are
        // dealt over kProbeRounds rounds that all carry the one grid:
        // the grid repeats every round, each probe every pass.
        std::vector<std::string> probe_apps =
            pick(rng, _strata.all(), _strata.all().size());
        MechanismSpec probe_spec = MechanismSpec::parse("DP,256,D");
        for (std::size_t r = 0; r < kProbeRounds; ++r) {
            Round round;
            round.grid = grid;
            for (std::size_t p = r; p < probe_apps.size(); p += kProbeRounds)
                round.probes.push_back(SweepJob::functional(
                    WorkloadSpec::app(probe_apps[p]), probe_spec, refs));
            _rounds.push_back(std::move(round));
        }
    }
};

} // namespace

std::unique_ptr<Workload>
makePaperGrid(const Options &options)
{
    return std::make_unique<PaperGrid>(options);
}

} // namespace perfbench
