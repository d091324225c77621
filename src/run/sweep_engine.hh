/**
 * @file
 * The one place that decides how a batch of SweepJobs executes: a
 * planner, an executor and a batch state, shared by SweepEngine, the
 * Dispatcher and the DispatchWorker.
 *
 * A batch is a ShardPlan: jobs plus the grouping the reduce step
 * folds (expandShards() fans a cell out into per-shard windows;
 * singleton groups pass through).  planUnits() cuts the plan into
 * units, each covering consecutive plan jobs:
 *
 *   Cell   one job, run by runSweepJob(job, hook).
 *   Group  consecutive same-stream functional cells under
 *          PassMode::SinglePass, one simulateMany pass.
 *   Chain  one cell's shards under ShardWarmup::Checkpoint, shard k
 *          warmed by restoring shard k-1's end-of-window snapshot.
 *
 * runUnit() executes a unit and returns one result per covered plan
 * job.  BatchState owns the result slots: it folds each plan group
 * the moment its last job lands, feeds the folded result to an
 * OrderedEmitter, and keeps the lowest-index failure.  The engine runs
 * the units on its pool; the dispatcher queues the very same units
 * and leases them to remote workers, whose results go into the same
 * BatchState.
 *
 * Determinism: every job owns its entire simulation state (stream,
 * TLB, buffer, prefetcher, RNG) and writes only its own slot, so
 * results are bit-identical to a serial run for any thread count,
 * worker count, pass mode or warm-up mode.  Units are weighted so
 * the pool hands them out heaviest first (costWeight() x count for
 * cells and groups, the whole budget for a chain); neither that
 * order nor any interleaving can change a result byte.
 *
 * A job that cannot run (zero reference budget, unknown application
 * model, unreadable trace file, malformed mix, a sharded timing cell)
 * throws std::invalid_argument; the batch drains and the
 * lowest-plan-index failure is rethrown.  Workload resolution inside
 * a worker never calls the fatal-exit registry path.
 *
 * Warm-up of a sharded cell:
 *
 *   ShardWarmup::Replay      every shard simulates the whole prefix
 *                            [0, begin_k) itself.  Shards are fully
 *                            independent, but total CPU grows
 *                            ~(N+1)/2x.
 *   ShardWarmup::Checkpoint  the shards run as one chain, ~1x total
 *                            work plus snapshot cost; different cells
 *                            still run concurrently.
 *
 * A mechanism that has not opted into checkpointing
 * (Prefetcher::checkpointable() == false) falls back to replay
 * warm-up for its shards.
 */

#ifndef TLBPF_RUN_SWEEP_ENGINE_HH
#define TLBPF_RUN_SWEEP_ENGINE_HH

#include <atomic>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "run/job.hh"
#include "util/check.hh"
#include "util/thread_pool.hh"

namespace tlbpf
{

/**
 * Load/store interface for *persistent* shard checkpoints — the
 * bridge between the engine and a durable SimState store (the sweep
 * service's on-disk CheckpointStore).  A key names the exact
 * simulator state of one cell identity at one stream position
 * (checkpointKey()); load() fills @p out and returns true when the
 * store holds that state.  Implementations must be thread-safe: the
 * engine calls the hook from its worker threads concurrently.  The
 * hook is an accelerator, never an oracle — a state it serves must
 * be byte-exact for its key, and the engine still verifies geometry
 * and mechanism identity on restore, so a stale or foreign entry
 * surfaces as a clean batch failure.
 */
class CheckpointHook
{
  public:
    virtual ~CheckpointHook() = default;

    /** Fetch the state for @p key; false when the store lacks it. */
    virtual bool load(const std::string &key, SimState &out) = 0;

    /** Persist @p state under @p key (best-effort). */
    virtual void store(const std::string &key,
                       const SimState &state) = 0;
};

/**
 * Compact textual signature of a cell's geometry, stable across
 * processes — one segment of the canonical cache identity of a cell.
 */
std::string configSignature(const SimConfig &config);

/**
 * Canonical cache identity of a cell: the
 * (workload, mechanism, geometry, refs, mode) tuple rendered through
 * WorkloadSpec::label() and MechanismSpec::canonical(), so every
 * alias spelling of the same experiment ("ASQ" vs "sp(adaptive)",
 * legend vs canonical mechanism forms) maps to the same key.
 */
std::string cellKey(const SweepJob &job);

/**
 * Identity of @p job's simulator state at stream position @p pos.
 * Deliberately excludes the reference budget and the shard suffix:
 * the state after [0, pos) depends only on the stream content, the
 * geometry and the mechanism, so a checkpoint taken by an 8-shard
 * run warms the matching boundary of a 4-shard (or bigger-budget)
 * run of the same cell.
 */
std::string checkpointKey(const SweepJob &job, std::uint64_t pos);

/**
 * Execute one cell on the calling thread.  Throws
 * std::invalid_argument if the job is malformed — unlike the bench
 * entry points, which tlbpf_fatal, so that the engine can report a
 * failing cell without tearing down the process from a worker thread.
 */
SweepResult runSweepJob(const SweepJob &job);

/**
 * runSweepJob() with a persistent-checkpoint store.  For an explicit
 * `spec#k/N` functional cell whose mechanism supports checkpointing,
 * the warm-up replay of the stream prefix [0, begin) is replaced by
 * restoring the stored state at `begin` when the hook has one (the
 * stream itself is fast-forwarded without simulating), and the
 * window-boundary states this run produces are stored back — so a
 * distributed sweep whose shards arrive as separate requests (or
 * after a server restart) pays the prefix cost once, not once per
 * shard.  Counters are bit-identical to the hookless path either
 * way.  A null @p hook, an unsharded cell, a timed cell or an
 * uncheckpointable mechanism all fall through to plain runSweepJob().
 */
SweepResult runSweepJob(const SweepJob &job, CheckpointHook *hook);

/** How sharded cells reconstruct simulator state at a window start. */
enum class ShardWarmup
{
    Replay,    ///< each shard replays its stream prefix (independent)
    Checkpoint ///< shards chain end-of-window snapshots (~1x work)
};

/**
 * How a batch with several mechanisms over the same stream executes.
 *
 *   PassMode::PerMechanism  every cell builds and drains its own
 *                           stream (the historical behaviour; maximal
 *                           cross-cell parallelism).
 *   PassMode::SinglePass    consecutive functional cells that share a
 *                           workload, reference budget and geometry
 *                           run as ONE simulateMany pass: the stream
 *                           is generated/decoded, and the TLB probed,
 *                           once for the group, and each mechanism's
 *                           back-end (prefetch buffer + prefetcher)
 *                           runs only on the TLB misses.  Results are
 *                           bit-identical to PerMechanism in the same
 *                           submission order; cells that cannot batch
 *                           (timing mode, sharded workloads,
 *                           singletons) fall through to runSweepJob
 *                           unchanged.
 */
enum class PassMode
{
    PerMechanism,
    SinglePass
};

/** Canonical flag value: "per-mechanism" or "single-pass". */
const char *passModeName(PassMode mode);

/**
 * Parse a pass-mode value ("per-mechanism"/"single-pass"); throws
 * std::invalid_argument on anything else.
 */
PassMode parsePassMode(const std::string &text);

/** Canonical flag value: "replay" or "checkpoint". */
const char *shardWarmupName(ShardWarmup warmup);

/**
 * Parse a --shard-warmup value ("replay"/"checkpoint"); throws
 * std::invalid_argument on anything else.
 */
ShardWarmup parseShardWarmup(const std::string &text);

/**
 * The expanded batch of a sharded run plus the explicit grouping the
 * reduce step folds.  groupSizes has one entry per pre-expansion job:
 * how many consecutive entries of jobs belong to it (shards of a
 * fanned-out cell, or 1 for a job that passed through).  Groups are
 * recorded explicitly rather than inferred from job shapes, so
 * caller-submitted `spec#k/N` cells are never confused with the
 * expansion of a neighbouring cell.
 */
struct ShardPlan
{
    std::vector<SweepJob> jobs;
    std::vector<std::uint32_t> groupSizes;
};

/**
 * Map phase of a sharded run: expand every unsharded functional job
 * into per-shard jobs (consecutive, shard order); timing cells and
 * jobs that already name an explicit shard pass through unchanged as
 * groups of one.  @p shards <= 1 keeps every job as-is.  The fan-out
 * of one job is clamped to its reference budget, so the shard windows
 * always partition [0, refs) exactly with no empty shard — asking for
 * more shards than references yields refs single-reference windows,
 * not empty ones.
 */
ShardPlan expandShards(const std::vector<SweepJob> &jobs,
                       std::uint32_t shards);

/**
 * Reduce phase: fold the results of @p plan.jobs back into one
 * result per pre-expansion job by summing the counter windows of
 * each plan group; a merged result carries the unsharded workload
 * label.  Jobs in singleton groups (including explicit `spec#k/N`
 * cells a caller submitted to run one slice of a distributed sweep)
 * pass through unchanged.  Throws std::invalid_argument if
 * @p results does not match the plan.
 */
std::vector<SweepResult>
mergeShardResults(const ShardPlan &plan,
                  const std::vector<SweepResult> &results);

/** One schedulable task of a batch: plan.jobs[start, start + count). */
struct SweepUnit
{
    enum class Kind
    {
        Cell,  ///< one plan job
        Group, ///< consecutive same-stream cells, one simulateMany pass
        Chain  ///< one cell's shards, chained through snapshots
    };

    Kind kind = Kind::Cell;
    std::size_t start = 0;
    std::uint32_t count = 1;
    std::uint64_t weight = 1; ///< relative cost, for LPT placement
};

/**
 * Cut @p plan into units, in plan order.  A group of shards becomes
 * one Chain under ShardWarmup::Checkpoint when its mechanism can
 * checkpoint, and independent Cells otherwise.  Under
 * PassMode::SinglePass, runs of consecutive singleton groups whose
 * functional, unsharded cells drain the same stream become one Group.
 * Everything else is a Cell.  Throws std::invalid_argument when the
 * group sizes do not tile plan.jobs.
 */
std::vector<SweepUnit> planUnits(const ShardPlan &plan,
                                 ShardWarmup warmup, PassMode mode);

/**
 * Execute @p unit of a plan whose jobs are @p jobs and return one
 * result per covered job, in plan order.  @p hook (may be null)
 * warms explicit `spec#k/N` cells and receives every boundary state a
 * chain passes through.
 */
std::vector<SweepResult> runUnit(const std::vector<SweepJob> &jobs,
                                 const SweepUnit &unit,
                                 CheckpointHook *hook);

/**
 * Number of independently schedulable tasks runSharded() creates for
 * @p plan (planUnits() under per-mechanism grouping).  Callers sizing
 * a pool can clamp to this instead of starting threads that would
 * only park.
 */
std::size_t shardTaskCount(const ShardPlan &plan, ShardWarmup warmup);

/** Multi-threaded batch runner with ordered, deterministic results. */
class SweepEngine
{
  public:
    /**
     * Incremental result delivery: invoked once per cell *in
     * submission order* while the batch is still running, as soon as
     * the cell and every cell before it have completed — the
     * streaming pipe the sweep service feeds per-cell frames from.
     * Invocations come from worker threads but are serialized (never
     * concurrent with each other), and the result reference is the
     * same slot the batch later returns.  If a cell fails, delivery
     * stops just before its index and the batch call rethrows as
     * usual.  The callback must not throw.
     */
    using ResultCallback =
        std::function<void(std::size_t index, const SweepResult &)>;

    /** @param threads worker count; 0 = hardware concurrency. */
    explicit SweepEngine(unsigned threads = 0) : _pool(threads) {}

    unsigned threads() const { return _pool.threadCount(); }

    /**
     * Run every job and return results in submission order; blocks
     * until the batch drains and rethrows the lowest-index failure.
     * PassMode::SinglePass runs consecutive same-stream cells as one
     * stream pass each, bit-identical to PassMode::PerMechanism.  A
     * non-empty @p on_result additionally streams each result in
     * submission order as the batch progresses.
     */
    std::vector<SweepResult>
    run(const std::vector<SweepJob> &jobs,
        PassMode mode = PassMode::PerMechanism,
        const ResultCallback &on_result = {});

    /**
     * Run @p plan and return one merged result per plan group,
     * bit-identical to run() over the unexpanded jobs for any shard
     * count, warm-up mode and pass mode.  @p on_result streams each
     * merged result in group order as its last job completes.
     */
    std::vector<SweepResult>
    runSharded(const ShardPlan &plan,
               ShardWarmup warmup = ShardWarmup::Checkpoint,
               const ResultCallback &on_result = {},
               PassMode mode = PassMode::PerMechanism);

    /**
     * Attach a persistent-checkpoint store consulted by every
     * subsequently run cell (see runSweepJob(job, hook) for exactly
     * which cells benefit; checkpoint-mode shard chains additionally
     * persist each window-boundary state they pass through).  The
     * hook must stay alive across runs and be thread-safe; nullptr
     * detaches.  Never affects result bytes.
     */
    void setCheckpointHook(CheckpointHook *hook)
    {
        _checkpointHook = hook;
    }

    CheckpointHook *checkpointHook() const { return _checkpointHook; }

    /** The underlying pool, for callers with custom cell loops. */
    ThreadPool &pool() { return _pool; }

    /**
     * Scheduler telemetry of the most recent run()/runSharded()
     * batch: per-worker job counts and busy time, and the measured
     * busy-time imbalance.  Valid until the next batch starts.
     */
    const ThreadPool::BatchStats &
    lastBatchStats() const
    {
        return _pool.lastBatchStats();
    }

  private:
    ThreadPool _pool;
    CheckpointHook *_checkpointHook = nullptr;
};

/**
 * Serialized, submission-ordered streaming delivery.  Workers mark
 * their result slots complete as they finish; whichever worker
 * advances the frontier emits every consecutive completed result
 * under the mutex, so callback invocations are ordered, never
 * concurrent, and see fully-written results (the slot write
 * happens-before the mutexed completion mark).  A slot whose task
 * failed is never marked, so delivery stalls just before the failing
 * index and the batch call's rethrow takes over — exactly the
 * documented ResultCallback contract.  BatchState feeds it from
 * local and remote completions alike, so a distributed batch streams
 * in the same order as a local one.
 */
class OrderedEmitter
{
  public:
    OrderedEmitter(const SweepEngine::ResultCallback &cb,
                   const std::vector<SweepResult> &results)
        : _cb(cb), _results(results), _done(results.size(), 0)
    {
    }

    /** Mark @p count consecutive slots at @p start complete. */
    void
    complete(std::size_t start, std::size_t count)
    {
        // Without a callback nothing observes the frontier, so plain
        // Release skips the bookkeeping entirely; checking builds
        // still track completions so the invariants below stay armed.
        if (!_cb && !dchecksEnabled())
            return;
        std::lock_guard<std::mutex> lock(_mutex);
        TLBPF_DCHECK_MSG(start <= _done.size() &&
                             count <= _done.size() - start,
                         "completion [", start, ", ", start + count,
                         ") overruns a batch of ", _done.size());
        for (std::size_t k = 0; k < count; ++k) {
            // A slot completing twice means some cell was computed
            // (and would be delivered) twice — the double-counting
            // the dispatcher's lease discard exists to prevent.
            TLBPF_DCHECK_MSG(!_done[start + k],
                             "slot ", start + k, " completed twice");
            _done[start + k] = 1;
        }
        std::size_t before = _frontier;
        while (_frontier < _done.size() && _done[_frontier]) {
            if (_cb)
                _cb(_frontier, _results[_frontier]);
            ++_frontier;
        }
        // The frontier only ever advances (delivery order is the
        // submission order); regression would re-deliver a result.
        TLBPF_DCHECK_MSG(_frontier >= before,
                         "emission frontier regressed from ", before,
                         " to ", _frontier);
    }

  private:
    const SweepEngine::ResultCallback &_cb;
    const std::vector<SweepResult> &_results;
    std::vector<char> _done;
    std::mutex _mutex;
    std::size_t _frontier = 0;
};

/**
 * The shared state of one planned batch: one result slot per plan
 * job, a per-group countdown that folds a group's shard windows
 * (mergeShardResults' reduce) as soon as its last job lands, the
 * ordered emitter fed with each folded result, and the
 * lowest-plan-index failure.  Distinct units may complete
 * concurrently from any thread; the plan and the callback must
 * outlive the state.
 */
class BatchState
{
  public:
    BatchState(const ShardPlan &plan,
               const SweepEngine::ResultCallback &on_result);

    /** runUnit(), then complete() — or record its failure. */
    void run(const SweepUnit &unit, CheckpointHook *hook);

    /** Store @p results, one per job of @p unit, and fold/emit. */
    void complete(const SweepUnit &unit,
                  std::vector<SweepResult> results);

    /**
     * After the batch drained: rethrow the lowest-index failure, or
     * hand back one merged result per plan group.
     */
    std::vector<SweepResult> take();

  private:
    const ShardPlan &_plan;
    std::vector<SweepResult> _slots;
    std::vector<SweepResult> _merged;
    std::vector<std::size_t> _groupStart; ///< + one past the end
    std::vector<std::size_t> _groupOf;    ///< plan job -> group
    std::vector<std::atomic<std::uint32_t>> _remaining;
    OrderedEmitter _emitter;
    std::mutex _failMutex;
    std::size_t _failIndex = 0;
    std::exception_ptr _error;
};

} // namespace tlbpf

#endif // TLBPF_RUN_SWEEP_ENGINE_HH
