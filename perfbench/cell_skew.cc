/**
 * @file
 * cell_skew: one mechanism per stream, with cells of very different
 * cost.  One pass is two rounds; each round's batch holds three long
 * DP cells (high-miss apps) run as 8-shard checkpoint chains, a crowd
 * of cells at 1/16 of that budget, `trace:` cells replaying .tpf
 * files generated at set-up, `mix:` cells with seeded pairings and
 * quanta, and Table-3 RP/DP timed cells.  Stream generation, trace
 * decode, snapshot/restore and the cycle model are a large share here
 * and nothing is shared across mechanisms; the 16x cost skew stresses
 * the scheduler.  A fixed crowd-sized DP cell on the lead app heads
 * each batch, and crowd-sized DP probes follow it.  Every app is in
 * the pass's crowd and probes once, every high-miss app is a long
 * cell once and every Table-3 app is timed once, so the seed changes
 * pairings and order, not the pass's mix.
 */

#include <cstdio>
#include <exception>
#include <filesystem>
#include <thread>

#include "batch_workload.hh"
#include "sim/experiment.hh"
#include "workload/app_registry.hh"

using namespace tlbpf;

namespace perfbench
{

namespace
{

// The rounds of one pass; with kLongCells per round, the 6 high-miss
// apps are each a long cell once per pass.
constexpr std::size_t kRounds = 2;
// Crowd cells run at the figure tools' budget (table3_cycles and
// fig7_spec default to it); long cells are 16x that, so each of their
// 8 shards is a 2M-reference window, the budget of the repository's
// distributed-sweep smoke grid.
constexpr std::uint64_t kCrowdRefs = kDefaultBenchRefs;
constexpr std::uint64_t kLongRefs = 16 * kCrowdRefs;
constexpr std::uint32_t kLongShards = 8;
constexpr std::size_t kLongCells = 3;
constexpr std::size_t kMixCells = 2;
// The context-switch intervals ablation_context_switch sweeps.
constexpr std::uint64_t kQuanta[] = {20'000, 100'000, 500'000};

class CellSkew : public BatchWorkload
{
  public:
    using BatchWorkload::BatchWorkload;

    void
    describeInputs() const override
    {
        _strata.describe();
        for (std::size_t i = 0; i < _traces.size(); ++i)
            std::printf("input trace %s: %s\n", _traces[i].c_str(),
                        _traceKinds[i].c_str());
        describeRounds();
    }

    LadderInputs
    ladderInputs() const override
    {
        LadderInputs in = ladderInputsFor(_options, _strata);
        in.mix = _firstMix;
        in.tracePath = _traces.front();
        in.batch = _rounds.front().grid;
        return in;
    }

  protected:
    void
    generate() override
    {
        _strata = classifyApps(_options);
        tlbpf::Rng rng(_options.seed ^ 0x736b6577ull);
        std::uint64_t long_refs = scaledRefs(_options, kLongRefs);
        std::uint64_t crowd_refs = scaledRefs(_options, kCrowdRefs);

        std::filesystem::path dir =
            std::filesystem::path(_options.workDir) / "skew-traces";
        std::filesystem::create_directories(dir);
        _traces.clear();
        _traceKinds.clear();
        _firstMix.clear();
        // One trace per generator kind, so every seed replays the
        // same kinds of stream.  The four are written concurrently,
        // each from its own seeded generator.
        for (unsigned kind = 0; kind < kTraceKinds; ++kind)
            _traces.push_back(
                (dir / ("trace" + std::to_string(kind) + ".tpf")).string());
        _traceKinds.resize(kTraceKinds);
        std::vector<std::exception_ptr> errors(kTraceKinds);
        std::vector<std::thread> writers;
        for (unsigned kind = 0; kind < kTraceKinds; ++kind)
            writers.emplace_back([&, kind, seed = rng.next()] {
                try {
                    tlbpf::Rng own(seed);
                    _traceKinds[kind] = writeSeededTrace(
                        _traces[kind], own, crowd_refs, kind);
                } catch (...) {
                    errors[kind] = std::current_exception();
                }
            });
        for (std::thread &writer : writers)
            writer.join();
        for (const std::exception_ptr &error : errors)
            if (error)
                std::rethrow_exception(error);

        // Each list below is dealt round-robin over the pass's rounds,
        // so the pass carries all of it whatever the seed.
        std::vector<std::string> long_apps =
            pick(rng, _strata.high.empty() ? _strata.all() : _strata.high,
                 kRounds * kLongCells);
        std::vector<std::string> crowd_apps =
            pick(rng, _strata.all(), _strata.all().size());
        std::vector<std::string> timed_apps =
            pick(rng, table3Apps(), table3Apps().size());
        Deck<std::string> mix_apps(_strata.all(), rng);
        Deck<MechanismSpec> specs(familySpecs(), rng);
        MechanismSpec dp = MechanismSpec::parse("DP,256,D");
        MechanismSpec rp = MechanismSpec::parse("RP");
        auto crowdCell = [&](WorkloadSpec workload) {
            return SweepJob::functional(std::move(workload), specs.draw(),
                                        crowd_refs);
        };
        auto dealt = [](const std::vector<std::string> &items,
                        std::size_t r) {
            std::vector<std::string> mine;
            for (std::size_t i = r; i < items.size(); i += kRounds)
                mine.push_back(items[i]);
            return mine;
        };

        for (std::size_t r = 0; r < kRounds; ++r) {
            Round round;
            round.gridKey = r;
            std::vector<SweepJob> jobs;
            std::vector<std::uint32_t> shards;
            for (const std::string &app : dealt(long_apps, r)) {
                jobs.push_back(SweepJob::functional(WorkloadSpec::app(app),
                                                    dp, long_refs));
                shards.push_back(kLongShards);
            }
            std::vector<std::string> crowd = dealt(crowd_apps, r);
            for (const std::string &app : crowd)
                jobs.push_back(crowdCell(WorkloadSpec::app(app)));
            for (const std::string &trace : _traces)
                jobs.push_back(crowdCell(WorkloadSpec::trace(trace)));
            for (std::size_t i = 0; i < kMixCells; ++i) {
                std::string first = mix_apps.draw();
                std::string second = mix_apps.draw();
                while (second == first)
                    second = mix_apps.draw();
                std::uint64_t quantum = std::max<std::uint64_t>(
                    1, static_cast<std::uint64_t>(
                           static_cast<double>(kQuanta[rng.nextBelow(
                               std::size(kQuanta))]) *
                           _options.scale));
                WorkloadSpec mix = WorkloadSpec::mix(
                    {WorkloadSpec::app(first), WorkloadSpec::app(second)},
                    quantum);
                if (_firstMix.empty())
                    _firstMix = mix.label();
                jobs.push_back(crowdCell(mix));
            }
            for (const std::string &app : dealt(timed_apps, r))
                for (const MechanismSpec *spec : {&rp, &dp})
                    jobs.push_back(SweepJob::timed(WorkloadSpec::app(app),
                                                   *spec, crowd_refs));
            shards.resize(jobs.size(), 1);

            // Seeded submission order, so the long chains land
            // anywhere in the stream of results, behind one fixed
            // crowd-sized cell: first_cell_p50 then times the same
            // cell in every round, not whichever kind came first.
            for (std::size_t i = jobs.size(); i > 1; --i) {
                std::size_t j = rng.nextBelow(i);
                std::swap(jobs[i - 1], jobs[j]);
                std::swap(shards[i - 1], shards[j]);
            }
            jobs.insert(jobs.begin(),
                        SweepJob::functional(
                            WorkloadSpec::app(_strata.lead()), dp,
                            crowd_refs));
            shards.insert(shards.begin(), 1);
            round.grid.jobs = std::move(jobs);
            round.grid.shards = std::move(shards);
            round.grid.mode = PassMode::PerMechanism;
            // Probes: one crowd-sized DP cell per crowd app of the
            // round (latency varies by app only).
            for (const std::string &app : crowd)
                round.probes.push_back(SweepJob::functional(
                    WorkloadSpec::app(app), dp, crowd_refs));
            _rounds.push_back(std::move(round));
        }
    }

  private:
    std::vector<std::string> _traces;
    std::vector<std::string> _traceKinds;
    std::string _firstMix;
};

} // namespace

std::unique_ptr<Workload>
makeCellSkew(const Options &options)
{
    return std::make_unique<CellSkew>(options);
}

} // namespace perfbench
