#include "dispatch/dispatcher.hh"

#include <algorithm>
#include <stdexcept>

#include "util/check.hh"

namespace tlbpf
{

namespace
{

std::chrono::milliseconds
leaseWindow(const DispatcherOptions &options)
{
    return std::chrono::milliseconds(
        options.leaseTimeoutMs ? options.leaseTimeoutMs : 1);
}

} // namespace

Dispatcher::Dispatcher(SweepEngine &engine,
                       const DispatcherOptions &options)
    : _engine(engine), _options(options)
{
}

std::uint64_t
Dispatcher::registerWorker(unsigned threads)
{
    std::lock_guard<std::mutex> lock(_mutex);
    std::uint64_t id = _nextWorker++;
    _workers.emplace(id, threads ? threads : 1);
    return id;
}

void
Dispatcher::unregisterWorker(std::uint64_t worker)
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_workers.erase(worker) == 0)
        return;
    // A dead worker's leases go straight back in the queue: the CI
    // kill-a-worker smoke relies on this being immediate, not
    // deadline-paced.
    for (auto it = _leases.begin(); it != _leases.end();) {
        if (it->second.worker != worker) {
            ++it;
            continue;
        }
        requeueLocked(it->second, false);
        if (_batch)
            _batch->reclaims += 1;
        _counters.leaseReclaims += 1;
        it = _leases.erase(it);
    }
    _cv.notify_all();
}

void
Dispatcher::heartbeat(std::uint64_t worker)
{
    std::lock_guard<std::mutex> lock(_mutex);
    Clock::time_point deadline = Clock::now() + leaseWindow(_options);
    for (auto &entry : _leases)
        if (entry.second.worker == worker)
            entry.second.deadline = deadline;
}

bool
Dispatcher::lease(std::uint64_t worker, LeaseGrant &out)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto wit = _workers.find(worker);
    if (wit == _workers.end())
        throw std::invalid_argument("lease: unknown worker id " +
                                    std::to_string(worker));
    if (!_batch)
        return false;
    Clock::time_point now = Clock::now();
    reclaimExpiredLocked(now);

    // Take the first leasable unit.  A chain travels alone (it is one
    // sequential task however many shards it spans); otherwise fill
    // the block with further cells and groups up to the worker's own
    // width, never splitting a group.
    Batch &batch = *_batch;
    std::size_t cap =
        std::min<std::size_t>(wit->second, _options.maxLeaseCells);
    LeaseState state;
    out.chain = false;
    out.jobs.clear();
    for (auto it = batch.queue.begin(); it != batch.queue.end();) {
        const SweepUnit &unit = batch.units[*it];
        bool chain = unit.kind == SweepUnit::Kind::Chain;
        bool fits = state.units.empty() ||
                    (!chain && state.jobCount + unit.count <= cap);
        if (batch.localOnly[*it] || !fits) {
            ++it;
            continue;
        }
        state.units.push_back(*it);
        state.jobCount += unit.count;
        out.jobs.insert(out.jobs.end(),
                        batch.plan->jobs.begin() + unit.start,
                        batch.plan->jobs.begin() + unit.start +
                            unit.count);
        out.chain = chain;
        it = batch.queue.erase(it);
        if (chain || state.jobCount >= cap)
            break;
    }
    if (state.units.empty())
        return false;
    out.lease = _nextLease++;
    state.worker = worker;
    state.granted = now;
    state.deadline = now + leaseWindow(_options);
    _counters.leasesGranted += 1;
    // Grant-shape invariants: the payload the worker must send back
    // is one result per job, and a chain is never block-filled.
    TLBPF_DCHECK_MSG(state.jobCount == out.jobs.size(),
                     "lease ", out.lease, " records ", state.jobCount,
                     " jobs but grants ", out.jobs.size());
    TLBPF_DCHECK(!out.chain || state.units.size() == 1);
    _leases.emplace(out.lease, std::move(state));
    return true;
}

bool
Dispatcher::completeLease(std::uint64_t lease,
                          std::vector<SweepResult> results)
{
    Batch *batch = nullptr;
    std::vector<std::size_t> units;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        auto it = _leases.find(lease);
        if (it == _leases.end() || !_batch)
            return false; // expired, reclaimed, or a stale batch
        if (results.size() != it->second.jobCount)
            throw std::invalid_argument(
                "cell result carries " +
                std::to_string(results.size()) +
                " results for a lease of " +
                std::to_string(it->second.jobCount) + " cells");
        units = std::move(it->second.units);
        double busy = std::chrono::duration<double>(
                          Clock::now() - it->second.granted)
                          .count();
        batch = _batch;
        batch->remoteCells += results.size();
        batch->busy[it->second.worker] += busy;
        batch->finishers += 1; // keeps the batch alive while we emit
        _counters.cellsDispatched += results.size();
        _leases.erase(it);
    }
    // The jobCount equality checked above guarantees the unit slices
    // tile the payload exactly.  The state folds and emits outside
    // _mutex, keeping the client-write path off the scheduler lock.
    auto next = results.begin();
    for (std::size_t u : units) {
        const SweepUnit &unit = batch->units[u];
        batch->state->complete(
            unit, std::vector<SweepResult>(
                      std::make_move_iterator(next),
                      std::make_move_iterator(next + unit.count)));
        next += unit.count;
    }
    {
        std::lock_guard<std::mutex> lock(_mutex);
        batch->unitsDone += units.size();
        batch->finishers -= 1;
    }
    // `batch` may be destroyed by runBatch() the moment the count
    // hits zero — nothing below may touch it.
    _cv.notify_all();
    return true;
}

void
Dispatcher::failLease(std::uint64_t lease)
{
    std::lock_guard<std::mutex> lock(_mutex);
    auto it = _leases.find(lease);
    if (it == _leases.end())
        return;
    requeueLocked(it->second, true);
    _counters.remoteFailures += 1;
    _leases.erase(it);
    _cv.notify_all();
}

bool
Dispatcher::hasWorkers() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return !_workers.empty();
}

Dispatcher::Counters
Dispatcher::counters() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    Counters out = _counters;
    out.workers = _workers.size();
    return out;
}

Dispatcher::BatchStats
Dispatcher::lastBatchStats() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _lastBatch;
}

void
Dispatcher::requeueLocked(const LeaseState &lease, bool local_only)
{
    if (!_batch)
        return;
    for (std::size_t u : lease.units) {
        if (local_only)
            _batch->localOnly[u] = 1;
        _batch->queue.push_back(u);
    }
}

void
Dispatcher::reclaimExpiredLocked(Clock::time_point now)
{
    for (auto it = _leases.begin(); it != _leases.end();) {
        if (it->second.deadline > now) {
            ++it;
            continue;
        }
        requeueLocked(it->second, false);
        if (_batch)
            _batch->reclaims += 1;
        _counters.leaseReclaims += 1;
        it = _leases.erase(it);
    }
}

void
Dispatcher::localDrain(Batch &batch)
{
    CheckpointHook *hook = _engine.checkpointHook();
    for (;;) {
        std::size_t unit;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            for (;;) {
                if (batch.unitsDone == batch.units.size())
                    return;
                reclaimExpiredLocked(Clock::now());
                if (!batch.queue.empty()) {
                    // Locals take the back; leases take the front.
                    // The two ends only meet when the queue is nearly
                    // empty, which keeps the tail of a batch local
                    // (no waiting out a lease on the last cell).
                    unit = batch.queue.back();
                    batch.queue.pop_back();
                    break;
                }
                // Everything is in flight.  Sleep until the earliest
                // lease deadline (to reclaim a stalled worker) or a
                // completion wakes us.
                Clock::time_point wake =
                    Clock::now() + std::chrono::milliseconds(200);
                for (const auto &entry : _leases)
                    wake = std::min(wake, entry.second.deadline);
                _cv.wait_until(lock, wake +
                                         std::chrono::milliseconds(1));
            }
        }
        batch.state->run(batch.units[unit], hook);
        {
            std::lock_guard<std::mutex> lock(_mutex);
            batch.unitsDone += 1; // resolved, possibly by failing
        }
        _cv.notify_all();
    }
}

std::vector<SweepResult>
Dispatcher::runBatch(const ShardPlan &plan, ShardWarmup warmup,
                     PassMode mode,
                     const SweepEngine::ResultCallback &on_result)
{
    bool dispatch;
    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_batch)
            throw std::logic_error(
                "Dispatcher::runBatch is not reentrant");
        dispatch = !_workers.empty();
    }
    if (!dispatch)
        return _engine.runSharded(plan, warmup, on_result, mode);

    Batch batch;
    batch.plan = &plan;
    batch.units = planUnits(plan, warmup, mode);
    BatchState state(plan, on_result);
    batch.state = &state;
    for (std::size_t u = 0; u < batch.units.size(); ++u) {
        const SweepUnit &unit = batch.units[u];
        batch.localOnly.push_back(
            unit.kind == SweepUnit::Kind::Cell &&
            plan.jobs[unit.start].mode != JobMode::Functional);
        batch.queue.push_back(u);
    }
    batch.start = Clock::now();

    {
        std::lock_guard<std::mutex> lock(_mutex);
        _batch = &batch;
    }
    _cv.notify_all();

    unsigned width = std::max(1u, _engine.threads());
    _engine.pool().parallelFor(
        width, [&](std::size_t) { localDrain(batch); });

    {
        std::unique_lock<std::mutex> lock(_mutex);
        // The local drain loops are done, but a worker session may
        // still be inside completeLease() emitting its last results;
        // the batch (and its state) must outlive that.
        _cv.wait(lock, [&] { return batch.finishers == 0; });
        // Drain postcondition: every unit resolved (completed or
        // failed) and none left behind in the queue.
        TLBPF_DCHECK_MSG(batch.unitsDone == batch.units.size(),
                         "batch drained with ", batch.unitsDone,
                         " of ", batch.units.size(),
                         " units resolved");
        TLBPF_DCHECK(batch.queue.empty());
        _batch = nullptr;
        // Any lease still out refers to units the batch already
        // resolved (its holder went quiet and was reclaimed past the
        // deadline, or the batch beat it locally).  Drop them so a
        // late result is discarded, not misapplied to a later batch.
        _leases.clear();
        _lastBatch = BatchStats{};
        _lastBatch.seconds = std::chrono::duration<double>(
                                 Clock::now() - batch.start)
                                 .count();
        _lastBatch.cells = plan.jobs.size();
        _lastBatch.remoteCells = batch.remoteCells;
        _lastBatch.leaseReclaims = batch.reclaims;
        for (const auto &entry : _workers) {
            auto busy = batch.busy.find(entry.first);
            _lastBatch.workerBusy.emplace_back(
                entry.first,
                busy == batch.busy.end() ? 0.0 : busy->second);
        }
    }
    _cv.notify_all();
    return state.take();
}

} // namespace tlbpf
