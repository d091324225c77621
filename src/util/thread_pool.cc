#include "util/thread_pool.hh"

#include <algorithm>
#include <chrono>
#include <utility>

#include "util/check.hh"

namespace tlbpf
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

double
ThreadPool::BatchStats::busyFractionMin() const
{
    if (workers.empty() || seconds <= 0)
        return 0;
    double best = 1;
    for (const WorkerStats &w : workers)
        best = std::min(best, w.busySeconds / seconds);
    return best;
}

double
ThreadPool::BatchStats::busyFractionMax() const
{
    if (workers.empty() || seconds <= 0)
        return 0;
    double best = 0;
    for (const WorkerStats &w : workers)
        best = std::max(best, w.busySeconds / seconds);
    return best;
}

unsigned
ThreadPool::defaultThreadCount()
{
    return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads)
    : _threads(threads ? threads : defaultThreadCount())
{
    for (unsigned i = 1; i < _threads; ++i)
        _workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _wake.notify_all();
    for (std::thread &worker : _workers)
        worker.join();
}

/** Take positions from the shared cursor until the order runs out. */
void
ThreadPool::drain(unsigned self)
{
    // Counted locally so workers never write a shared cache line per
    // job; published once, before the drain reports back.
    WorkerStats me;
    for (;;) {
        std::size_t pos = _cursor.fetch_add(1);
        if (pos >= _size)
            break;
        std::size_t index = _order ? _order[pos] : pos;
        auto start = Clock::now();
        try {
            _invoke(_ctx, index);
        } catch (...) {
            std::lock_guard<std::mutex> lock(_mutex);
            if (!_error || index < _errorIndex) {
                _errorIndex = index;
                _error = std::current_exception();
            }
        }
        me.busySeconds += secondsSince(start);
        ++me.jobs;
    }
    _stats.workers[self] = me;
}

void
ThreadPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wake.wait(lock, [&] {
                return _stopping || _generation != seen;
            });
            if (_stopping)
                return;
            seen = _generation;
        }
        drain(self);
        std::lock_guard<std::mutex> lock(_mutex);
        if (--_active == 0)
            _done.notify_all();
    }
}

void
ThreadPool::runBatch(std::size_t n, const std::uint64_t *weights,
                     BatchThunk invoke, const void *ctx)
{
    auto start = Clock::now();
    _stats.workers.assign(_threads, WorkerStats{});
    _order = nullptr;
    if (weights) {
        _weightedOrder.resize(n);
        for (std::size_t i = 0; i < n; ++i)
            _weightedOrder[i] = i;
        auto cost = [&](std::size_t i) {
            return std::max<std::uint64_t>(weights[i], 1);
        };
        std::stable_sort(_weightedOrder.begin(), _weightedOrder.end(),
                         [&](std::size_t a, std::size_t b) {
                             return cost(a) > cost(b);
                         });
        _order = _weightedOrder.data();
    }
    _invoke = invoke;
    _ctx = ctx;
    _size = n;
    _cursor.store(0);

    if (_workers.empty() || n == 0) {
        drain(0);
    } else {
        // Publishing the batch under _mutex orders every write above
        // before any worker's first cursor increment.
        {
            std::lock_guard<std::mutex> lock(_mutex);
            _active = static_cast<unsigned>(_workers.size());
            ++_generation;
        }
        _wake.notify_all();
        drain(0);
        std::unique_lock<std::mutex> lock(_mutex);
        _done.wait(lock, [&] { return _active == 0; });
    }

    _stats.jobs = n;
    _stats.seconds = secondsSince(start);
    std::uint64_t executed = 0;
    double busiest = 0;
    double busy = 0;
    for (const WorkerStats &worker : _stats.workers) {
        executed += worker.jobs;
        busiest = std::max(busiest, worker.busySeconds);
        busy += worker.busySeconds;
    }
    TLBPF_DCHECK_MSG(executed == n, "batch of ", n, " ran ", executed,
                     " jobs");
    // max x threads >= sum exactly; the clamp absorbs rounding.
    _stats.lptImbalance =
        busy > 0 ? std::max(1.0, busiest * _threads / busy) : 1.0;
    if (std::exception_ptr error = std::exchange(_error, nullptr))
        std::rethrow_exception(error);
}

} // namespace tlbpf
