/**
 * @file
 * A fixed-size worker pool for deterministic fan-out.
 *
 * A batch is one shared order of its indices, and every thread (the
 * calling thread participates as worker 0) takes the next position
 * from one atomic cursor until the order runs out.  parallelFor's
 * order is the identity.  parallelForWeighted's is the indices stably
 * sorted by descending weight, ties in index order: handing the
 * heaviest remaining index to whichever thread frees up first is
 * longest-processing-time list scheduling, so a 50x cell starts at
 * once instead of alone at the tail.  A pool of 1 spawns no workers
 * and walks the order inline.
 *
 * Determinism is the *caller's* contract: fn must write only to
 * per-index state (e.g. slot i of a pre-sized results vector), so the
 * outcome is identical for any thread count and any interleaving.  If
 * fn throws, the remaining indices still run and the exception from
 * the lowest index is rethrown on the calling thread after the batch
 * drains.  The callable is taken by const reference through a
 * function-pointer thunk, so a batch allocates nothing for it.
 *
 * lastBatchStats() reports per-worker job counts and busy time of the
 * most recent batch; it is only valid between batches.
 */

#ifndef TLBPF_UTIL_THREAD_POOL_HH
#define TLBPF_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace tlbpf
{

/** Fixed-size worker pool with a shared-cursor parallel-for. */
class ThreadPool
{
  public:
    /** Per-worker telemetry for the most recent batch. */
    struct WorkerStats
    {
        std::uint64_t jobs = 0; ///< indices this worker executed
        double busySeconds = 0; ///< time spent inside fn
    };

    /** Whole-batch telemetry (see lastBatchStats()). */
    struct BatchStats
    {
        std::size_t jobs = 0; ///< batch size n
        double seconds = 0;   ///< wall-clock of the batch
        /**
         * Measured imbalance: max busySeconds x threads / the sum of
         * busySeconds.  1.0 means every worker was busy equally long.
         */
        double lptImbalance = 1.0;
        std::vector<WorkerStats> workers; ///< one per thread

        // Always 0: the cursor has no such events.  They stay only
        // for the perfbench ladder rungs that print them, and ROADMAP
        // item 1 retires both together with those rungs.
        std::uint64_t stealEvents() const { return 0; }
        std::uint64_t backoffEvents() const { return 0; }
        /** Min/max over workers of busySeconds / batch seconds. */
        double busyFractionMin() const;
        double busyFractionMax() const;
    };

    /**
     * @param threads total concurrency including the calling thread;
     *                0 selects defaultThreadCount().
     */
    explicit ThreadPool(unsigned threads = 0);

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool();

    /** Concurrency (calling thread + workers). */
    unsigned threadCount() const { return _threads; }

    /** Run fn(0) .. fn(n-1), handed out in index order. */
    template <typename Fn>
    void
    parallelFor(std::size_t n, const Fn &fn)
    {
        runBatch(n, nullptr, &invokeThunk<Fn>, &fn);
    }

    /**
     * Run fn(i) for every index of @p weights, handed out heaviest
     * first, ties in index order.  weights[i] is the expected cost of
     * fn(i) in any consistent unit; a zero weight counts as 1.
     */
    template <typename Fn>
    void
    parallelForWeighted(const std::vector<std::uint64_t> &weights,
                        const Fn &fn)
    {
        runBatch(weights.size(), weights.data(), &invokeThunk<Fn>,
                 &fn);
    }

    /** Telemetry of the most recent batch; read it between batches. */
    const BatchStats &lastBatchStats() const { return _stats; }

    /** std::thread::hardware_concurrency(), clamped to at least 1. */
    static unsigned defaultThreadCount();

  private:
    /** Type-erased, non-owning view of the batch callable. */
    using BatchThunk = void (*)(const void *, std::size_t);

    template <typename Fn>
    static void
    invokeThunk(const void *ctx, std::size_t index)
    {
        (*static_cast<const Fn *>(ctx))(index);
    }

    void runBatch(std::size_t n, const std::uint64_t *weights,
                  BatchThunk invoke, const void *ctx);
    void drain(unsigned self);
    void workerLoop(unsigned self);

    unsigned _threads;
    std::vector<std::thread> _workers;

    std::mutex _mutex;
    std::condition_variable _wake; ///< workers wait for a batch
    std::condition_variable _done; ///< caller waits for the drain

    // The batch, written by the caller and published under _mutex;
    // _generation bumps once per batch so a sleeping worker can tell a
    // new batch from a spurious wakeup.
    std::uint64_t _generation = 0;
    bool _stopping = false;
    unsigned _active = 0; ///< workers still inside the current batch
    BatchThunk _invoke = nullptr;
    const void *_ctx = nullptr;
    std::size_t _size = 0;
    const std::size_t *_order = nullptr; ///< null: identity order
    std::vector<std::size_t> _weightedOrder;
    alignas(64) std::atomic<std::size_t> _cursor{0};

    // Lowest failing index so far (guarded by _mutex), and its error.
    std::size_t _errorIndex = 0;
    std::exception_ptr _error;

    // workers[w] is written only by worker w (0 = caller) in a batch.
    BatchStats _stats;
};

} // namespace tlbpf

#endif // TLBPF_UTIL_THREAD_POOL_HH
