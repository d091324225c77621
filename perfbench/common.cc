#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "sim/experiment.hh"
#include "sim/functional_sim.hh"
#include "trace/trace_file.hh"
#include "workload/app_registry.hh"
#include "workload/generators.hh"

using namespace tlbpf;

namespace perfbench
{

std::uint64_t
scaledRefs(const Options &options, std::uint64_t refs)
{
    double scaled = std::round(static_cast<double>(refs) * options.scale);
    return std::max<std::uint64_t>(1000, static_cast<std::uint64_t>(scaled));
}

void
Report::add(const std::string &name, double value, const std::string &unit,
            const std::string &note)
{
    if (!std::isfinite(value))
        value = 0.0; // JSON has no NaN; only ratios over empty sets hit this
    _metrics.push_back({name, value, unit, note});
}

void
Report::fail(const std::string &why)
{
    // Keep the first few verbatim; a systematic mismatch would
    // otherwise print thousands of identical lines.
    if (_failures.size() < 20)
        std::fprintf(stderr, "FAIL: %s\n", why.c_str());
    _failures.push_back(why);
}

void
Report::print(const std::string &prefix) const
{
    for (const Metric &m : _metrics)
        std::printf("metric %s%s %.6g %s%s%s\n", prefix.c_str(),
                    m.name.c_str(), m.value, m.unit.c_str(),
                    m.note.empty() ? "" : "  ", m.note.c_str());
    double share = attempted ? static_cast<double>(failed) /
                                   static_cast<double>(attempted)
                             : 0.0;
    std::printf("metric %sfailed_share %.6g share  (%llu of %llu)\n",
                prefix.c_str(), share,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
}

void
Report::printVerdict() const
{
    std::printf("oracle %s (%zu mismatches)\n",
                correct() ? "ok" : "FAILED", _failures.size());
}

std::string
Report::json() const
{
    std::string out = "{\"correct\": ";
    out += correct() ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < _metrics.size(); ++i) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", _metrics[i].value);
        out += i ? ", " : "";
        out += "\"" + _metrics[i].name + "\": {\"value\": " +
               value + ", \"unit\": \"" + _metrics[i].unit + "\"}";
    }
    out += "}}";
    return out;
}

const std::vector<Family> &
families()
{
    static const std::vector<Family> kFamilies = {
        {"dp", "DP,256,D"}, {"rp", "RP"},  {"mp", "MP,256,D"},
        {"asp", "ASP,256,D"}, {"sp", "SP,1"},
    };
    return kFamilies;
}

std::vector<MechanismSpec>
familySpecs()
{
    std::vector<MechanismSpec> specs;
    for (const Family &family : families())
        specs.push_back(MechanismSpec::parse(family.legend));
    return specs;
}

std::vector<std::string>
Strata::all() const
{
    std::vector<std::string> apps = low;
    apps.insert(apps.end(), mid.begin(), mid.end());
    apps.insert(apps.end(), high.begin(), high.end());
    return apps;
}

const std::string &
Strata::lead() const
{
    for (const auto *stratum : {&low, &mid, &high})
        if (!stratum->empty())
            return stratum->front();
    throw std::runtime_error("no apps to lead a round with");
}

namespace
{
/**
 * Up to @p k apps of @p apps sorted by @p rate: one from each of k
 * equal bins, at offset pickIn(bin size) within the bin.
 */
template <typename PickIn>
std::vector<std::string>
binned(const std::map<std::string, double> &rate,
       std::vector<std::string> apps, std::size_t k, PickIn pickIn)
{
    std::stable_sort(apps.begin(), apps.end(),
                     [&](const std::string &a, const std::string &b) {
                         return rate.at(a) < rate.at(b);
                     });
    std::size_t n = apps.size();
    k = std::min(k, n);
    std::vector<std::string> out;
    for (std::size_t b = 0; b < k; ++b) {
        std::size_t lo = b * n / k, hi = (b + 1) * n / k;
        out.push_back(apps[lo + pickIn(hi - lo)]);
    }
    return out;
}
} // namespace

std::vector<std::string>
Strata::spread(Rng &rng, std::vector<std::string> apps, std::size_t k) const
{
    return binned(missRate, std::move(apps), k,
                  [&](std::size_t n) { return rng.nextBelow(n); });
}

std::vector<std::string>
Strata::binCentres(std::vector<std::string> apps, std::size_t k) const
{
    return binned(missRate, std::move(apps), k,
                  [](std::size_t n) { return n / 2; });
}

void
Strata::describe() const
{
    std::printf("input strata low=%zu mid=%zu high=%zu\n", low.size(),
                mid.size(), high.size());
}

Strata
classifyApps(const Options &options)
{
    // At the bench tools' default budget, the one every grid cell runs
    // at.  The 56 classification cells run on an nproc-thread engine:
    // set-up is then not hostage to the speed of whichever single vCPU
    // it happens to land on.
    std::vector<SweepJob> jobs;
    for (const AppModel &app : appRegistry())
        jobs.push_back(SweepJob::functional(WorkloadSpec::app(app.name),
                                            MechanismSpec::none(),
                                            scaledRefs(options,
                                                       kDefaultBenchRefs)));
    SweepEngine engine(hostCpus());
    std::vector<SweepResult> results =
        engine.run(jobs, PassMode::PerMechanism);
    Strata strata;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        double rate = results[i].missRate();
        strata.missRate[jobs[i].workload.appName] = rate;
        (rate < 0.02 ? strata.low : rate < 0.09 ? strata.mid
                                                : strata.high)
            .push_back(jobs[i].workload.appName);
    }
    return strata;
}

namespace
{
/** The quantum of the README's and the context-switch ablation's mix. */
constexpr std::uint64_t kLadderMixQuantum = 100'000;
/** Pages a walk trace wraps within; scans cover half as many. */
constexpr std::uint64_t kTraceSpanPages = 16384;
} // namespace

LadderInputs
ladderInputsFor(const Options &options, const Strata &strata)
{
    LadderInputs in;
    Rng rng(options.seed ^ 0x6c6164646572ull);
    for (const auto *stratum : {&strata.low, &strata.mid, &strata.high})
        if (!stratum->empty())
            in.apps.push_back(pickOne(rng, *stratum));
    in.mix = WorkloadSpec::mix({WorkloadSpec::app(in.apps.front()),
                                WorkloadSpec::app(in.apps.back())},
                               kLadderMixQuantum)
                 .label();
    return in;
}

std::vector<std::string>
pick(Rng &rng, std::vector<std::string> items, std::size_t k)
{
    k = std::min(k, items.size());
    for (std::size_t i = 0; i < k; ++i)
        std::swap(items[i],
                  items[i + rng.nextBelow(items.size() - i)]);
    items.resize(k);
    return items;
}

std::string
writeSeededTrace(const std::string &path, Rng &rng, std::uint64_t refs,
                 unsigned kind)
{
    // Footprints are capped independently of the seed and of @p refs
    // (the walk wraps in a fixed window, the scan repeats over a fixed
    // span), so a trace's page table, and the peak memory replaying
    // it, stays within ~2x across seeds.
    std::unique_ptr<RefStream> stream;
    std::uint64_t seed = rng.next();
    switch (kind % kTraceKinds) {
    case 0: {
        DistancePatternWalk::Config c;
        c.pattern.clear();
        std::int64_t drift = 0;
        for (std::uint64_t i = 0, n = 2 + rng.nextBelow(4); i < n; ++i) {
            c.pattern.push_back(rng.nextRange(-3, 8));
            drift += c.pattern.back();
        }
        // A forward net drift, so the walk covers its whole window.
        if (drift < 1)
            c.pattern.push_back(1 - drift);
        c.regionPages = kTraceSpanPages;
        c.refsPerStep = 4 + static_cast<std::uint32_t>(rng.nextBelow(5));
        c.steps = 2 * (refs / c.refsPerStep + 1);
        c.noise = 0.05 * rng.nextDouble();
        c.seed = seed;
        stream = std::make_unique<DistancePatternWalk>(c);
        break;
    }
    case 1: {
        HistoryLoop::Config c;
        c.footprintPages = 1024 + rng.nextBelow(1024);
        c.seqLen = c.footprintPages;
        c.refsPerStep = 8 + static_cast<std::uint32_t>(rng.nextBelow(9));
        // Bursty steps dwell less than refsPerStep, so a pass can be
        // shorter than seqLen * refsPerStep: ask for twice enough.
        c.passes = static_cast<std::uint32_t>(
            2 * (refs / (c.seqLen * c.refsPerStep) + 1));
        c.burstiness = 0.3 * rng.nextDouble();
        c.seed = seed;
        stream = std::make_unique<HistoryLoop>(c);
        break;
    }
    case 2: {
        ZipfMix::Config c;
        c.numPages = 4096 + rng.nextBelow(4096);
        c.zipfSkew = 0.6 + 0.5 * rng.nextDouble();
        c.refsPerStep = 4 + static_cast<std::uint32_t>(rng.nextBelow(9));
        c.steps = 2 * (refs / c.refsPerStep + 1);
        c.seed = seed;
        stream = std::make_unique<ZipfMix>(c);
        break;
    }
    default: {
        StridedScan::Config c;
        c.strideBytes = 256 << rng.nextBelow(3);
        c.count = kTraceSpanPages / 2 * (4096 / c.strideBytes);
        c.passes = static_cast<std::uint32_t>(refs / c.count + 1);
        c.shuffleBlockPages =
            static_cast<std::uint32_t>(4 + rng.nextBelow(29));
        c.seed = seed;
        stream = std::make_unique<StridedScan>(c);
        break;
    }
    }
    std::string what = stream->describe();
    TraceWriter writer(path);
    std::vector<MemRef> buf(kSimBatchRefs);
    std::uint64_t left = refs;
    while (left > 0) {
        std::size_t got = stream->nextBatch(
            buf.data(), std::min<std::uint64_t>(left, buf.size()));
        if (got == 0)
            break;
        for (std::size_t i = 0; i < got; ++i)
            writer.write(buf[i]);
        left -= got;
    }
    writer.close();
    if (left != 0)
        throw std::runtime_error("generator for " + path +
                                 " ended before " + std::to_string(refs) +
                                 " references");
    return what;
}

std::vector<SweepResult>
runBatch(SweepEngine &engine, const Batch &batch,
         const SweepEngine::ResultCallback &on_result)
{
    bool sharded = std::any_of(batch.shards.begin(), batch.shards.end(),
                               [](std::uint32_t n) { return n > 1; });
    if (!sharded)
        return engine.run(batch.jobs, batch.mode, on_result);
    ShardPlan plan;
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
        ShardPlan part = expandShards({batch.jobs[i]}, batch.shards[i]);
        plan.jobs.insert(plan.jobs.end(), part.jobs.begin(),
                         part.jobs.end());
        plan.groupSizes.insert(plan.groupSizes.end(),
                               part.groupSizes.begin(),
                               part.groupSizes.end());
    }
    return engine.runSharded(plan, ShardWarmup::Checkpoint, on_result);
}

bool
sameCounters(const SweepResult &a, const SweepResult &b)
{
    return a.mode == b.mode && a.functional == b.functional &&
           (a.mode != JobMode::Timed || a.timed == b.timed);
}

std::string
jobName(const SweepJob &job)
{
    return job.workload.label() + "|" + job.spec.label() + "|" +
           std::to_string(job.refs) +
           (job.mode == JobMode::Timed ? "|timed" : "");
}

} // namespace perfbench
