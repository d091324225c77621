#include "run/sweep_engine.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <stdexcept>

namespace tlbpf
{

std::string
configSignature(const SimConfig &config)
{
    std::string sig;
    sig += "tlb=";
    sig += std::to_string(config.tlb.entries);
    sig += "/";
    sig += std::to_string(config.tlb.assoc);
    sig += ",pb=";
    sig += std::to_string(config.pbEntries);
    sig += ",page=";
    sig += std::to_string(config.pageBytes);
    sig += ",allrefs=";
    sig += config.trainOnAllRefs ? "1" : "0";
    sig += ",cs=";
    sig += std::to_string(config.contextSwitchInterval);
    return sig;
}

std::string
cellKey(const SweepJob &job)
{
    std::string key = job.workload.label();
    key += "|";
    key += job.spec.canonical();
    key += "|";
    key += configSignature(job.config);
    key += "|refs=";
    key += std::to_string(job.refs);
    if (job.mode == JobMode::Timed) {
        char timing[96];
        std::snprintf(timing, sizeof(timing),
                      "|timed:cpi=%.17g,miss=%llu,mem=%llu",
                      job.timing.baseCpi,
                      static_cast<unsigned long long>(
                          job.timing.missPenalty),
                      static_cast<unsigned long long>(
                          job.timing.memOpCost));
        key += timing;
    }
    return key;
}

std::string
checkpointKey(const SweepJob &job, std::uint64_t pos)
{
    std::string key = job.workload.base().label();
    key += "|";
    key += job.spec.canonical();
    key += "|";
    key += configSignature(job.config);
    key += "|pos=";
    key += std::to_string(pos);
    return key;
}

namespace
{

/** An empty result carrying @p job's labels. */
SweepResult
labelledResult(const SweepJob &job)
{
    SweepResult result;
    result.mode = job.mode;
    result.workload = job.workload.label();
    result.mechanism = job.spec.label();
    return result;
}

} // namespace

SweepResult
runSweepJob(const SweepJob &job)
{
    if (job.refs == 0)
        throw std::invalid_argument(
            "sweep job for '" + job.workload.label() +
            "' needs a positive reference budget");

    SweepResult result = labelledResult(job);
    if (job.workload.sharded()) {
        if (job.mode != JobMode::Functional)
            throw std::invalid_argument(
                "sharded workload '" + job.workload.label() +
                "' requires a functional cell (timing cells cannot "
                "be sharded)");
        auto [begin, end] = job.workload.shardWindow(job.refs);
        auto stream = job.workload.base().build(job.refs);
        result.functional = simulateWindow(job.config, job.spec,
                                           *stream, begin, end - begin);
        return result;
    }

    auto stream = job.workload.build(job.refs);
    if (job.mode == JobMode::Timed) {
        result.timed =
            simulateTimed(job.config, job.timing, job.spec, *stream);
        result.functional = result.timed.functional;
    } else {
        result.functional = simulate(job.config, job.spec, *stream);
    }
    return result;
}

ShardPlan
expandShards(const std::vector<SweepJob> &jobs, std::uint32_t shards)
{
    ShardPlan plan;
    plan.groupSizes.reserve(jobs.size());
    plan.jobs.reserve(shards <= 1 ? jobs.size()
                                  : jobs.size() * shards);
    for (const SweepJob &job : jobs) {
        // Never fan a cell out wider than its reference budget:
        // shardWindow() would hand the surplus shards empty windows,
        // which burn a full warm-up replay each to record nothing.
        std::uint32_t fanout = shards;
        if (job.refs < fanout)
            fanout = static_cast<std::uint32_t>(job.refs);
        if (fanout <= 1 || job.mode != JobMode::Functional ||
            job.workload.sharded()) {
            plan.jobs.push_back(job);
            plan.groupSizes.push_back(1);
            continue;
        }
        for (std::uint32_t k = 0; k < fanout; ++k) {
            SweepJob shard = job;
            shard.workload = job.workload.withShard(k, fanout);
            plan.jobs.push_back(std::move(shard));
        }
        plan.groupSizes.push_back(fanout);
    }
    return plan;
}

namespace
{

/** Fold one plan group's per-shard windows into its merged result. */
SweepResult
foldGroup(const ShardPlan &plan, const std::vector<SweepResult> &results,
          std::size_t start, std::uint32_t count)
{
    if (count == 1)
        return results[start];
    SweepResult folded;
    folded.mode = plan.jobs[start].mode;
    folded.workload = plan.jobs[start].workload.base().label();
    folded.mechanism = plan.jobs[start].spec.label();
    for (std::uint32_t k = 0; k < count; ++k)
        addCounters(folded.functional, results[start + k].functional);
    return folded;
}

/** Throw unless @p plan's group sizes tile its jobs exactly. */
void
checkPlan(const ShardPlan &plan)
{
    std::size_t covered = 0;
    for (std::uint32_t count : plan.groupSizes) {
        if (count == 0 || count > plan.jobs.size() - covered)
            throw std::invalid_argument(
                "shard plan group sizes exceed the job batch");
        covered += count;
    }
    if (covered != plan.jobs.size())
        throw std::invalid_argument(
            "shard plan group sizes do not cover the job batch");
}

} // namespace

std::vector<SweepResult>
mergeShardResults(const ShardPlan &plan,
                  const std::vector<SweepResult> &results)
{
    if (plan.jobs.size() != results.size())
        throw std::invalid_argument(
            "shard merge: plan/result batch size mismatch");

    std::vector<SweepResult> merged;
    merged.reserve(plan.groupSizes.size());
    std::size_t i = 0;
    for (std::uint32_t count : plan.groupSizes) {
        if (i + count > results.size())
            throw std::invalid_argument(
                "shard merge: plan group sizes exceed the result "
                "batch");
        merged.push_back(foldGroup(plan, results, i, count));
        i += count;
    }
    if (i != results.size())
        throw std::invalid_argument(
            "shard merge: plan group sizes do not cover the result "
            "batch");
    return merged;
}

const char *
passModeName(PassMode mode)
{
    return mode == PassMode::PerMechanism ? "per-mechanism"
                                          : "single-pass";
}

PassMode
parsePassMode(const std::string &text)
{
    if (text == "per-mechanism")
        return PassMode::PerMechanism;
    if (text == "single-pass")
        return PassMode::SinglePass;
    throw std::invalid_argument(
        "unknown pass mode '" + text +
        "' (expected per-mechanism or single-pass)");
}

const char *
shardWarmupName(ShardWarmup warmup)
{
    return warmup == ShardWarmup::Replay ? "replay" : "checkpoint";
}

ShardWarmup
parseShardWarmup(const std::string &text)
{
    if (text == "replay")
        return ShardWarmup::Replay;
    if (text == "checkpoint")
        return ShardWarmup::Checkpoint;
    throw std::invalid_argument(
        "unknown shard warm-up mode '" + text +
        "' (expected replay or checkpoint)");
}

namespace
{

/**
 * Whether a cell's mechanism supports exact snapshot/restore.  Probes
 * a throwaway build (cheap: registry construction is microseconds) so
 * the planner can fall back to replay warm-up for open-registry
 * mechanisms that never implemented the checkpoint hooks.
 */
bool
mechanismCheckpointable(const SweepJob &job)
{
    PageTable pt;
    std::unique_ptr<Prefetcher> built = job.spec.build(pt);
    return !built || built->checkpointable();
}

/**
 * Execute one cell's shards as a checkpoint chain: a single stream
 * pass where shard k's warm-up is the restore of shard k-1's
 * end-of-window snapshot.  Per-shard results are identical to what
 * replay-mode jobs would produce (same labels, same counter windows),
 * so the fold cannot tell the modes apart.  A non-null @p hook
 * additionally receives every window-boundary state the chain passes
 * through, so a persistent store warms future explicit-shard
 * requests for this cell.
 */
std::vector<SweepResult>
runShardChain(const std::vector<SweepJob> &jobs, std::size_t start,
              std::uint32_t count, CheckpointHook *hook)
{
    const SweepJob &first = jobs[start];
    auto stream = first.workload.base().build(first.refs);
    std::vector<SweepResult> out;
    out.reserve(count);
    SimState state;
    std::uint64_t pos = 0;
    for (std::uint32_t k = 0; k < count; ++k) {
        const SweepJob &job = jobs[start + k];
        auto [begin, end] = job.workload.shardWindow(job.refs);
        if (begin != pos)
            throw std::invalid_argument(
                "shard chain windows are not contiguous (window "
                "starts at " +
                std::to_string(begin) + ", stream is at " +
                std::to_string(pos) + ")");
        out.push_back(labelledResult(job));
        bool last = k + 1 == count;
        bool want_state = !last || hook;
        out.back().functional = simulateWindowFrom(
            job.config, job.spec, *stream, k > 0 ? &state : nullptr,
            end - begin, want_state ? &state : nullptr);
        if (hook)
            hook->store(checkpointKey(job, end), state);
        pos = end;
    }
    return out;
}

/** Run consecutive same-stream cells as one simulateMany pass. */
std::vector<SweepResult>
runPassGroup(const std::vector<SweepJob> &jobs, std::size_t start,
             std::uint32_t count)
{
    const SweepJob &first = jobs[start];
    std::vector<MechanismSpec> specs;
    specs.reserve(count);
    for (std::uint32_t k = 0; k < count; ++k)
        specs.push_back(jobs[start + k].spec);
    auto stream = first.workload.build(first.refs);
    std::vector<SimResult> counters =
        simulateMany(first.config, specs, *stream);
    std::vector<SweepResult> out;
    out.reserve(count);
    for (std::uint32_t k = 0; k < count; ++k) {
        out.push_back(labelledResult(jobs[start + k]));
        out.back().functional = counters[k];
    }
    return out;
}

/** Whether a cell is eligible for single-pass batching at all. */
bool
passBatchable(const SweepJob &job)
{
    return job.mode == JobMode::Functional && !job.workload.sharded() &&
           job.refs > 0;
}

/** Whether two eligible cells would drain the very same stream. */
bool
sameStream(const SweepJob &a, const SweepJob &b)
{
    return a.workload == b.workload && a.refs == b.refs &&
           a.config == b.config;
}

} // namespace

std::vector<SweepUnit>
planUnits(const ShardPlan &plan, ShardWarmup warmup, PassMode mode)
{
    checkPlan(plan);
    const std::vector<SweepJob> &jobs = plan.jobs;
    const std::vector<std::uint32_t> &sizes = plan.groupSizes;
    std::vector<SweepUnit> units;
    units.reserve(sizes.size());
    std::size_t g = 0;
    std::size_t start = 0;
    while (g < sizes.size()) {
        const SweepJob &first = jobs[start];
        if (sizes[g] == 1) {
            // Only adjacent cells group, so submission order — and
            // with it the lowest-index error contract — is kept.
            std::uint32_t width = 1;
            if (mode == PassMode::SinglePass && passBatchable(first))
                while (g + width < sizes.size() &&
                       sizes[g + width] == 1 &&
                       passBatchable(jobs[start + width]) &&
                       sameStream(first, jobs[start + width]))
                    ++width;
            // A group drives `width` back-ends through one stream:
            // cost ~ stream length x width.
            units.push_back({width > 1 ? SweepUnit::Kind::Group
                                       : SweepUnit::Kind::Cell,
                             start, width, first.costWeight() * width});
            g += width;
            start += width;
            continue;
        }
        if (warmup == ShardWarmup::Checkpoint &&
            mechanismCheckpointable(first)) {
            // A chain simulates its cell's whole stream once, so it
            // weighs the full budget — typically 10-50x the singles
            // it shares a batch with.
            units.push_back({SweepUnit::Kind::Chain, start, sizes[g],
                             std::max<std::uint64_t>(first.refs, 1)});
        } else {
            for (std::uint32_t k = 0; k < sizes[g]; ++k)
                units.push_back({SweepUnit::Kind::Cell, start + k, 1,
                                 jobs[start + k].costWeight()});
        }
        start += sizes[g];
        g += 1;
    }
    return units;
}

std::vector<SweepResult>
runUnit(const std::vector<SweepJob> &jobs, const SweepUnit &unit,
        CheckpointHook *hook)
{
    switch (unit.kind) {
    case SweepUnit::Kind::Chain:
        return runShardChain(jobs, unit.start, unit.count, hook);
    case SweepUnit::Kind::Group:
        return runPassGroup(jobs, unit.start, unit.count);
    case SweepUnit::Kind::Cell:
        break;
    }
    std::vector<SweepResult> out;
    out.push_back(runSweepJob(jobs[unit.start], hook));
    return out;
}

std::size_t
shardTaskCount(const ShardPlan &plan, ShardWarmup warmup)
{
    return planUnits(plan, warmup, PassMode::PerMechanism).size();
}

SweepResult
runSweepJob(const SweepJob &job, CheckpointHook *hook)
{
    if (!hook || !job.workload.sharded() ||
        job.mode != JobMode::Functional || job.refs == 0 ||
        !mechanismCheckpointable(job))
        return runSweepJob(job);

    auto [begin, end] = job.workload.shardWindow(job.refs);
    SweepResult result = labelledResult(job);

    if (begin > 0) {
        SimState warm;
        if (hook->load(checkpointKey(job, begin), warm)) {
            auto stream = job.workload.base().build(job.refs);
            try {
                skipRefs(*stream, begin);
                SimState end_state;
                result.functional = simulateWindowFrom(
                    job.config, job.spec, *stream, &warm, end - begin,
                    &end_state);
                hook->store(checkpointKey(job, end), end_state);
                return result;
            } catch (const std::invalid_argument &) {
                // A stale or foreign store entry must never fail the
                // batch: fall through to the replay path below, which
                // rebuilds the stream from scratch.
            }
        }
    }

    auto stream = job.workload.base().build(job.refs);
    SimState end_state;
    if (begin > 0) {
        // Replay the prefix once, but bank the warm state it produces
        // so the *next* request for any shard starting at `begin`
        // skips this replay entirely.
        SimState warm;
        simulateWindowFrom(job.config, job.spec, *stream, nullptr,
                           begin, &warm);
        hook->store(checkpointKey(job, begin), warm);
        result.functional = simulateWindowFrom(
            job.config, job.spec, *stream, &warm, end - begin,
            &end_state);
    } else {
        result.functional = simulateWindowFrom(
            job.config, job.spec, *stream, nullptr, end - begin,
            &end_state);
    }
    hook->store(checkpointKey(job, end), end_state);
    return result;
}

BatchState::BatchState(const ShardPlan &plan,
                       const SweepEngine::ResultCallback &on_result)
    : _plan(plan), _slots(plan.jobs.size()),
      _merged(plan.groupSizes.size()), _groupOf(plan.jobs.size()),
      _remaining(plan.groupSizes.size()), _emitter(on_result, _merged),
      _failIndex(plan.jobs.size())
{
    checkPlan(plan);
    _groupStart.reserve(plan.groupSizes.size() + 1);
    std::size_t start = 0;
    for (std::size_t g = 0; g < plan.groupSizes.size(); ++g) {
        _groupStart.push_back(start);
        _remaining[g].store(plan.groupSizes[g],
                            std::memory_order_relaxed);
        for (std::uint32_t k = 0; k < plan.groupSizes[g]; ++k)
            _groupOf[start + k] = g;
        start += plan.groupSizes[g];
    }
    _groupStart.push_back(start);
}

void
BatchState::run(const SweepUnit &unit, CheckpointHook *hook)
{
    std::vector<SweepResult> results;
    try {
        results = runUnit(_plan.jobs, unit, hook);
    } catch (...) {
        std::lock_guard<std::mutex> lock(_failMutex);
        if (!_error || unit.start < _failIndex) {
            _failIndex = unit.start;
            _error = std::current_exception();
        }
        return;
    }
    complete(unit, std::move(results));
}

void
BatchState::complete(const SweepUnit &unit,
                     std::vector<SweepResult> results)
{
    std::size_t end = unit.start + unit.count;
    TLBPF_DCHECK_MSG(results.size() == unit.count &&
                         end <= _slots.size(),
                     "unit [", unit.start, ", ", end, ") returned ",
                     results.size(), " results in a batch of ",
                     _slots.size());
    for (std::uint32_t k = 0; k < unit.count; ++k)
        _slots[unit.start + k] = std::move(results[k]);
    // Fold each group whose last job this unit supplied, on this
    // thread, so merged results stream out while later units still
    // run.  The groups completing here are always consecutive.
    std::size_t first = 0;
    std::size_t folded = 0;
    for (std::size_t i = unit.start; i < end;) {
        std::size_t g = _groupOf[i];
        std::size_t stop = std::min(end, _groupStart[g + 1]);
        auto n = static_cast<std::uint32_t>(stop - i);
        // acq_rel orders every job's slot write before the fold.
        std::uint32_t left =
            _remaining[g].fetch_sub(n, std::memory_order_acq_rel);
        TLBPF_DCHECK_MSG(left >= n, "group ", g, " completed twice");
        if (left == n) {
            std::size_t size = _groupStart[g + 1] - _groupStart[g];
            _merged[g] = size == 1
                             ? std::move(_slots[i])
                             : foldGroup(_plan, _slots, _groupStart[g],
                                         static_cast<std::uint32_t>(
                                             size));
            if (folded++ == 0)
                first = g;
        }
        i = stop;
    }
    if (folded)
        _emitter.complete(first, folded);
}

std::vector<SweepResult>
BatchState::take()
{
    if (_error)
        std::rethrow_exception(_error);
    return std::move(_merged);
}

std::vector<SweepResult>
SweepEngine::run(const std::vector<SweepJob> &jobs, PassMode mode,
                 const ResultCallback &on_result)
{
    ShardPlan plan;
    plan.jobs = jobs;
    plan.groupSizes.assign(jobs.size(), 1);
    return runSharded(plan, ShardWarmup::Checkpoint, on_result, mode);
}

std::vector<SweepResult>
SweepEngine::runSharded(const ShardPlan &plan, ShardWarmup warmup,
                        const ResultCallback &on_result, PassMode mode)
{
    std::vector<SweepUnit> units = planUnits(plan, warmup, mode);
    BatchState batch(plan, on_result);
    std::vector<std::uint64_t> weights;
    weights.reserve(units.size());
    for (const SweepUnit &unit : units)
        weights.push_back(unit.weight);
    CheckpointHook *hook = _checkpointHook;
    _pool.parallelForWeighted(
        weights, [&](std::size_t u) { batch.run(units[u], hook); });
    return batch.take();
}

} // namespace tlbpf
