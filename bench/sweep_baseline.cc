/**
 * @file
 * Sweep-engine throughput baseline: runs a fixed mixed
 * functional/timing job batch serially and in parallel, measures
 * cells/second, and writes a JSON record (default BENCH_sweep.json)
 * so the perf trajectory of the parallel sweep infrastructure is
 * tracked across PRs.
 *
 * The batch is the Table-2 mechanism set crossed with the 8
 * high-miss-rate applications (functional), plus RP/DP timing cells
 * on the Table-3 applications — a miniature of the full paper
 * regeneration.  Determinism is asserted, not assumed: the parallel
 * run's counters must equal the serial run's.
 *
 * A second phase times the shard map/reduce path in both warm-up
 * modes on a single-worker engine (so wall-clock equals total CPU):
 * one cell sharded kShardFanout ways, merged, and checked
 * bit-identical against the unsharded run.  Replay warm-up
 * reconstructs each shard's state by replaying its stream prefix
 * (total CPU ~(N+1)/2x — the price of exactness with independent
 * shards); checkpoint warm-up chains end-of-window SimState
 * snapshots, targeting ~1x.  BENCH_sweep.json records both
 * (shard_overhead_replay, shard_overhead) so the CPU cost of
 * --shards is tracked across PRs.
 *
 * A third phase times mechanism-registry resolution: how many
 * parse+build round-trips per second the MechanismRegistry sustains
 * (spec string -> resolved MechanismSpec -> constructed prefetcher),
 * so the registry's construction overhead is tracked in
 * BENCH_sweep.json alongside cells/sec.
 *
 * A fourth phase measures the single-pass multi-mechanism win: the
 * full figure-7 mechanism set replayed from one trace on a one-worker
 * engine, timed in per-mechanism mode (the trace is decoded once per
 * mechanism) and single-pass mode (decoded once for the whole sweep),
 * with the counters checked identical between the modes.  The ratio
 * lands in BENCH_sweep.json as single_pass_speedup, and the
 * single-cell inner-loop throughput as refs_per_sec, so hot-loop
 * regressions are visible independently of engine overhead.
 *
 * A fifth phase stresses the pool's heaviest-first hand-out with a
 * skewed batch: 8-shard checkpoint chains (each ~a full cell of work
 * in one task) next to a crowd of cells at 1/16th the budget, run on
 * a --threads-worker engine.  The pool's telemetry lands in
 * BENCH_sweep.json (worker_busy_fraction_min/max, and lpt_imbalance,
 * the measured busy-time imbalance) so a badly balanced batch is
 * visible in the committed perf trajectory.
 *
 * A sixth phase round-trips the functional grid through an
 * in-process tlbpf-server (loopback TCP, ephemeral port): a cold
 * submission that simulates every cell (service_cells_per_sec — the
 * protocol + engine path end to end) and an identical resubmission
 * that must be served entirely from the result cache
 * (cache_hit_cells_per_sec; re-simulating even one cell is fatal).
 * The server's lifetime hit fraction lands as cache_hit_rate, so
 * both the wire overhead and the cache's payoff are tracked.
 *
 * A seventh phase runs the same grid through the distributed
 * Dispatcher with two in-process workers pulling leases against a
 * 1-thread local engine — the lease/complete cycle a tlbpf-worker
 * fleet drives, minus the wire.  Byte-identity against the serial run
 * is asserted and the fleet must carry at least one cell; the record
 * gains dispatch_cells_per_sec, lease_reclaims and
 * worker_utilization_min/max so fleet scheduling health is part of
 * the committed perf trajectory.
 *
 * Because the committed record is produced in a 1-core container
 * where parallel speedup is unmeasurable, the baseline also times
 * the *same* batch as a raw serial loop (no engine, no pool) vs a
 * 1-worker engine and records the ratio as
 * serial_vs_parallel_overhead: a scheduler that starts taxing every
 * job shows up there even when speedup reads null.
 *
 * Usage: sweep_baseline [--refs N] [--threads N] [--json out.json]
 *                       [--mech spec,...] [--list-mechanisms]
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench_common.hh"
#include "dispatch/dispatcher.hh"
#include "service/client.hh"
#include "service/server.hh"
#include "trace/trace_file.hh"

// A sanitized build runs the whole suite 2-20x slower, so its timings
// must never be mistaken for a baseline.  The record carries the
// build flavor and CI asserts it is false for the committed numbers.
// TLBPF_SANITIZED_BUILD comes from -DTLBPF_SANITIZE=...; the compiler
// macros catch builds that passed -fsanitize= by hand.
#if defined(TLBPF_SANITIZED_BUILD) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define TLBPF_BENCH_SANITIZED true
#else
#define TLBPF_BENCH_SANITIZED false
#endif

int
main(int argc, char **argv)
{
    using namespace tlbpf;
    using namespace tlbpf::bench;
    using Clock = std::chrono::steady_clock;

    BenchOptions options = parseBenchOptions(argc, argv);
    if (options.jsonPath.empty())
        options.jsonPath = "BENCH_sweep.json";

    std::vector<SweepJob> jobs;
    std::vector<MechanismSpec> functional_mechs =
        selectedMechanisms(options, table2Specs());
    for (const std::string &app : highMissRateApps())
        for (const MechanismSpec &spec : functional_mechs)
            jobs.push_back(SweepJob::functional(WorkloadSpec::app(app),
                                                spec, options.refs));
    std::vector<MechanismSpec> timed_mechs = selectedMechanisms(
        options, std::vector<std::string>{"RP", "DP,256,D"});
    for (const std::string &app : table3Apps())
        for (const MechanismSpec &spec : timed_mechs)
            jobs.push_back(SweepJob::timed(WorkloadSpec::app(app), spec,
                                           options.refs));

    std::printf("=== Sweep-engine baseline: %zu cells, %llu refs/cell "
                "===\n",
                jobs.size(),
                static_cast<unsigned long long>(options.refs));

    auto time_run = [&](unsigned threads,
                        std::vector<SweepResult> &out) {
        SweepEngine engine(threads);
        auto start = Clock::now();
        out = engine.run(jobs);
        return std::chrono::duration<double>(Clock::now() - start)
            .count();
    };

    // One untimed pass first, so the cold-start cost (page faults,
    // lazily-built registry state) lands on no timed variant — the
    // serial/parallel/raw comparisons below are all warm.
    for (const SweepJob &job : jobs)
        (void)runSweepJob(job);

    std::vector<SweepResult> serial_results;
    std::vector<SweepResult> parallel_results;
    double serial_s = time_run(1, serial_results);
    double parallel_s = time_run(options.threads, parallel_results);

    // The same batch as a raw loop — no engine, no pool, no
    // telemetry.  The 1-worker engine time over this is the pure
    // per-job scheduling tax, the regression signal a single-core
    // host can still measure.
    std::vector<SweepResult> raw_results(jobs.size());
    auto raw_start = Clock::now();
    for (std::size_t i = 0; i < jobs.size(); ++i)
        raw_results[i] = runSweepJob(jobs[i]);
    double raw_s =
        std::chrono::duration<double>(Clock::now() - raw_start)
            .count();
    double scheduler_overhead = serial_s / raw_s;

    // The engine's contract, spot-checked on every baseline run.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const SimResult &a = serial_results[i].functional;
        const SimResult &b = parallel_results[i].functional;
        const SimResult &c = raw_results[i].functional;
        if (a.misses != b.misses || a.pbHits != b.pbHits ||
            a.prefetchesIssued != b.prefetchesIssued)
            tlbpf_fatal("parallel run diverged from serial at cell ",
                        i);
        if (a.misses != c.misses || a.pbHits != c.pbHits ||
            a.prefetchesIssued != c.prefetchesIssued)
            tlbpf_fatal("engine run diverged from the raw loop at "
                        "cell ",
                        i);
    }

    double cells = static_cast<double>(jobs.size());
    double serial_cps = cells / serial_s;
    double parallel_cps = cells / parallel_s;

    // Shard map/reduce overhead on one representative cell, both
    // warm-up modes.  A one-worker engine makes wall-clock equal
    // total CPU, which is the cost --shards must not inflate; each
    // variant is timed best-of-kShardRounds so a scheduling hiccup on
    // a busy host does not masquerade as warm-up overhead.
    constexpr std::uint32_t kShardFanout = 8;
    constexpr int kShardRounds = 3;
    MechanismSpec dp = parseMechanismOrDie("DP,256,D");
    std::vector<SweepJob> shard_cell = {SweepJob::functional(
        WorkloadSpec::app("mcf"), dp, options.refs)};
    SweepEngine shard_serial(1);

    auto best_of = [&](auto &&run_once) {
        double best = 0;
        for (int round = 0; round < kShardRounds; ++round) {
            auto start = Clock::now();
            run_once();
            double seconds =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
            if (round == 0 || seconds < best)
                best = seconds;
        }
        return best;
    };

    SweepResult unsharded;
    double unsharded_s = best_of(
        [&] { unsharded = shard_serial.run(shard_cell)[0]; });

    auto time_sharded = [&](ShardWarmup warmup) {
        return best_of([&] {
            SweepResult merged = shard_serial.runSharded(
                expandShards(shard_cell, kShardFanout), warmup)[0];
            if (merged.functional.refs != unsharded.functional.refs ||
                merged.functional.misses !=
                    unsharded.functional.misses ||
                merged.functional.pbHits !=
                    unsharded.functional.pbHits ||
                merged.functional.prefetchesIssued !=
                    unsharded.functional.prefetchesIssued)
                tlbpf_fatal("sharded-and-merged counters (",
                            shardWarmupName(warmup),
                            " warm-up) diverged from the unsharded "
                            "cell");
        });
    };
    double replay_s = time_sharded(ShardWarmup::Replay);
    double checkpoint_s = time_sharded(ShardWarmup::Checkpoint);

    // Registry construction overhead: parse+build round-trips per
    // second over a representative spec mix (one per builtin family
    // plus the composite).  This is the per-cell setup cost the open
    // registry adds over the old closed-enum switch.
    const char *const kRegistrySpecs[] = {
        "DP,256,D", "RP", "ASP,256,D", "MP,256,D", "SP,1", "ASQ",
        "hybrid(dp+sp)",
    };
    constexpr int kRegistryRounds = 2000;
    auto t0 = Clock::now();
    std::uint64_t builds = 0;
    volatile const void *sink = nullptr; // keep the builds observable
    for (int round = 0; round < kRegistryRounds; ++round) {
        for (const char *text : kRegistrySpecs) {
            PageTable pt;
            MechanismSpec spec = MechanismSpec::parse(text);
            auto built = spec.build(pt);
            sink = built.get();
            ++builds;
        }
    }
    (void)sink;
    double registry_s =
        std::chrono::duration<double>(Clock::now() - t0).count();
    double builds_per_sec = static_cast<double>(builds) / registry_s;

    // Single-pass multi-mechanism speedup on the figure-7 mechanism
    // set, replayed from a trace: the stream whose redundancy the
    // single-pass mode removes.  The bench dumps its own temp trace
    // (there is no committed trace of useful length), then times both
    // pass modes on a one-worker engine so wall-clock equals total
    // CPU; the counters must not differ between the modes.
    const std::string pass_trace = "sweep_baseline_stream.tpf";
    {
        auto stream = WorkloadSpec::app("mcf").build(options.refs);
        dumpTrace(*stream, pass_trace);
    }
    std::vector<SweepJob> pass_jobs;
    for (const MechanismSpec &spec : figure7Specs())
        pass_jobs.push_back(SweepJob::functional(
            WorkloadSpec::trace(pass_trace), spec, options.refs));
    SweepEngine pass_engine(1);
    std::vector<SweepResult> per_mech_results;
    std::vector<SweepResult> single_pass_results;
    double per_mech_s = best_of([&] {
        per_mech_results =
            pass_engine.run(pass_jobs, PassMode::PerMechanism);
    });
    double single_pass_s = best_of([&] {
        single_pass_results =
            pass_engine.run(pass_jobs, PassMode::SinglePass);
    });
    for (std::size_t i = 0; i < pass_jobs.size(); ++i) {
        const SimResult &a = per_mech_results[i].functional;
        const SimResult &b = single_pass_results[i].functional;
        if (a.refs != b.refs || a.misses != b.misses ||
            a.pbHits != b.pbHits ||
            a.prefetchesIssued != b.prefetchesIssued)
            tlbpf_fatal("single-pass run diverged from per-mechanism "
                        "at cell ",
                        i, " (", pass_jobs[i].spec.label(), ")");
    }
    std::remove(pass_trace.c_str());
    double single_pass_speedup = per_mech_s / single_pass_s;
    // Inner-loop throughput of one cell, free of engine overhead: the
    // unsharded single-cell timing above is exactly that.
    double refs_per_sec =
        static_cast<double>(options.refs) / unsharded_s;

    // Skew-stress the pool: two full-budget cells expanded into
    // 8-shard checkpoint chains (each chain is one ~full-cell task)
    // interleaved with twelve cells at 1/16th the budget — the 10-50x
    // cost spread the heaviest-first order exists for.  Runs on the
    // requested --threads so multi-core CI runs record real
    // imbalance; the telemetry is well-defined on one worker too.
    const char *const kCheapApps[] = {"gcc",     "mcf",    "swim",
                                      "galgel",  "ammp",   "applu",
                                      "apsi",    "lucas",  "mgrid",
                                      "wupwise", "vortex", "twolf"};
    std::uint64_t cheap_refs =
        std::max<std::uint64_t>(options.refs / 16, 1);
    // Hand-built plan: only the heavy cells fan out (expandShards
    // would shard the cheap ones too), so the batch really is chains
    // next to trivial singles.
    ShardPlan skew_plan;
    std::size_t cheap_i = 0;
    for (const char *heavy : {"mcf", "gcc"}) {
        for (std::uint32_t k = 0; k < 8; ++k)
            skew_plan.jobs.push_back(SweepJob::functional(
                WorkloadSpec::app(heavy).withShard(k, 8), dp,
                options.refs));
        skew_plan.groupSizes.push_back(8);
        for (int k = 0; k < 6; ++k) {
            skew_plan.jobs.push_back(SweepJob::functional(
                WorkloadSpec::app(kCheapApps[cheap_i++ % 12]), dp,
                cheap_refs));
            skew_plan.groupSizes.push_back(1);
        }
    }
    SweepEngine skew_engine(options.threads);
    auto skew_start = Clock::now();
    std::vector<SweepResult> skew_results =
        skew_engine.runSharded(skew_plan, ShardWarmup::Checkpoint);
    double skew_s =
        std::chrono::duration<double>(Clock::now() - skew_start)
            .count();
    const ThreadPool::BatchStats &sched = skew_engine.lastBatchStats();
    std::vector<SweepResult> skew_serial =
        SweepEngine(1).runSharded(skew_plan, ShardWarmup::Checkpoint);
    for (std::size_t i = 0; i < skew_results.size(); ++i)
        if (skew_results[i].functional.misses !=
                skew_serial[i].functional.misses ||
            skew_results[i].functional.pbHits !=
                skew_serial[i].functional.pbHits)
            tlbpf_fatal("skewed batch diverged from serial at cell ",
                        i);

    // The sweep service round trip: the functional grid submitted to
    // an in-process server over loopback TCP, cold (every cell
    // simulated, so the number is protocol + engine end to end) and
    // hot (the identical resubmission, answered purely from the
    // result cache — a single re-simulated cell is a contract
    // violation, not a slowdown).
    ServerOptions service_options;
    service_options.port = 0; // ephemeral: parallel CI runs can't clash
    service_options.threads = options.threads;
    SweepServer server(service_options);
    std::thread serving([&] { server.serve(); });
    SweepRequest service_request;
    for (const std::string &app : highMissRateApps())
        service_request.workloads.push_back("app:" + app);
    for (const MechanismSpec &spec : functional_mechs)
        service_request.mechanisms.push_back(spec.canonical());
    service_request.refs = options.refs;
    auto service_sweep = [&] {
        return ServiceClient("127.0.0.1", server.port())
            .sweep(service_request);
    };
    auto service_start = Clock::now();
    ServiceClient::SweepOutcome service_cold = service_sweep();
    double service_s =
        std::chrono::duration<double>(Clock::now() - service_start)
            .count();
    auto cache_start = Clock::now();
    ServiceClient::SweepOutcome service_hot = service_sweep();
    double cache_hit_s =
        std::chrono::duration<double>(Clock::now() - cache_start)
            .count();
    if (service_cold.done.simulated != service_cold.done.cells)
        tlbpf_fatal("cold service sweep was unexpectedly cached");
    if (service_hot.done.simulated != 0)
        tlbpf_fatal("resubmitted service sweep re-simulated ",
                    service_hot.done.simulated, " of ",
                    service_hot.done.cells, " cells");
    // The wire is exact: the streamed counters must equal the local
    // engine's (the functional grid is the front of `jobs`).
    for (std::size_t i = 0; i < service_cold.results.size(); ++i)
        if (!(service_cold.results[i].functional ==
              serial_results[i].functional) ||
            !(service_hot.results[i].functional ==
              serial_results[i].functional))
            tlbpf_fatal("service sweep diverged from the local "
                        "engine at cell ",
                        i);
    StatsReply service_stats =
        ServiceClient("127.0.0.1", server.port()).stats();
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
    double service_cells =
        static_cast<double>(service_cold.done.cells);
    double service_cps = service_cells / service_s;
    double cache_hit_cps = service_cells / cache_hit_s;
    double cache_hit_rate =
        service_stats.cells
            ? static_cast<double>(service_stats.cacheHits) /
                  static_cast<double>(service_stats.cells)
            : 0.0;

    // The distributed dispatcher: the functional grid again, on a
    // deliberately narrow (1-thread) local engine with two in-process
    // workers pulling leases through the Dispatcher API — the same
    // lease/complete cycle tlbpf-worker drives over TCP, minus the
    // wire.  Byte-identity against the serial run is asserted (the
    // grid is the front of `jobs`), and the fleet must actually carry
    // cells: a dispatcher that stops granting leases fails the bench
    // rather than quietly recording a local-only number.
    std::vector<SweepJob> fleet_jobs;
    for (const std::string &app : highMissRateApps())
        for (const MechanismSpec &spec : functional_mechs)
            fleet_jobs.push_back(SweepJob::functional(
                WorkloadSpec::app(app), spec, options.refs));
    ShardPlan fleet_plan;
    fleet_plan.jobs = fleet_jobs;
    fleet_plan.groupSizes.assign(fleet_jobs.size(), 1);
    SweepEngine fleet_engine(1);
    Dispatcher fleet_dispatcher(fleet_engine);
    std::atomic<bool> fleet_done{false};
    auto pull_leases = [&] {
        std::uint64_t id = fleet_dispatcher.registerWorker(1);
        LeaseGrant grant;
        while (!fleet_done.load()) {
            if (!fleet_dispatcher.lease(id, grant)) {
                std::this_thread::yield();
                continue;
            }
            std::vector<SweepResult> computed;
            computed.reserve(grant.jobs.size());
            for (const SweepJob &job : grant.jobs)
                computed.push_back(runSweepJob(job));
            fleet_dispatcher.completeLease(grant.lease,
                                           std::move(computed));
        }
        fleet_dispatcher.unregisterWorker(id);
    };
    std::thread fleet_worker1(pull_leases);
    std::thread fleet_worker2(pull_leases);
    while (fleet_dispatcher.counters().workers != 2)
        std::this_thread::yield(); // both registered before the batch
    auto fleet_start = Clock::now();
    std::vector<SweepResult> fleet_results = fleet_dispatcher.runBatch(
        fleet_plan, ShardWarmup::Replay, PassMode::PerMechanism,
        [](std::size_t, const SweepResult &) {});
    double fleet_s =
        std::chrono::duration<double>(Clock::now() - fleet_start)
            .count();
    fleet_done.store(true);
    fleet_worker1.join();
    fleet_worker2.join();
    Dispatcher::BatchStats fleet_batch =
        fleet_dispatcher.lastBatchStats();
    for (std::size_t i = 0; i < fleet_results.size(); ++i)
        if (!(fleet_results[i].functional ==
              serial_results[i].functional))
            tlbpf_fatal("dispatched sweep diverged from the serial "
                        "run at cell ",
                        i);
    if (fleet_batch.remoteCells == 0)
        tlbpf_fatal("the two-worker fleet never carried a cell");
    double dispatch_cps =
        static_cast<double>(fleet_jobs.size()) / fleet_s;
    double fleet_util_min = 1.0, fleet_util_max = 0.0;
    for (const auto &entry : fleet_batch.workerBusy) {
        double utilization =
            fleet_s > 0 ? entry.second / fleet_s : 0.0;
        fleet_util_min = std::min(fleet_util_min, utilization);
        fleet_util_max = std::max(fleet_util_max, utilization);
    }

    // On a single-core host — or a run pinned to --threads 1 — the
    // serial-vs-parallel comparison only measures scheduling noise;
    // record null so trend tracking never mistakes a ~1.0x "speedup"
    // for a regression or an improvement.
    unsigned hardware = ThreadPool::defaultThreadCount();
    bool reliable = hardware >= 2 && options.threads >= 2;

    TableSink table;
    table.header({"mode", "threads", "seconds", "cells/sec"});
    table.row({"serial", "1", TablePrinter::num(serial_s, 3),
               TablePrinter::num(serial_cps, 2)});
    table.row({"parallel", std::to_string(options.threads),
               TablePrinter::num(parallel_s, 3),
               TablePrinter::num(parallel_cps, 2)});
    table.finish();
    if (reliable)
        std::printf("speedup: %.2fx (hardware concurrency: %u)\n",
                    serial_s / parallel_s, hardware);
    else
        std::printf("speedup: n/a (hardware concurrency: %u; a "
                    "single-core host cannot measure parallel "
                    "speedup)\n",
                    hardware);
    std::printf("shard warm-up (%u shards, 1 worker, merged == "
                "unsharded): replay %.3fs (%.2fx), checkpoint %.3fs "
                "(%.2fx) vs %.3fs unsharded\n",
                kShardFanout, replay_s, replay_s / unsharded_s,
                checkpoint_s, checkpoint_s / unsharded_s,
                unsharded_s);
    std::printf("registry parse+build: %.0f builds/sec (%llu builds "
                "in %.3fs)\n",
                builds_per_sec,
                static_cast<unsigned long long>(builds), registry_s);
    std::printf("single-pass (fig7 set, %zu mechanisms, trace "
                "replay): %.3fs vs %.3fs per-mechanism = %.2fx; "
                "one cell sustains %.2fM refs/sec\n",
                pass_jobs.size(), single_pass_s, per_mech_s,
                single_pass_speedup, refs_per_sec / 1e6);
    std::printf("scheduler: 1-worker engine / raw loop = %.3fx "
                "per-job overhead\n",
                scheduler_overhead);
    std::printf("skewed batch (%zu tasks: 2x 8-shard chains + 12 "
                "cheap cells, %u worker%s): %.3fs, busy %.2f..%.2f, "
                "lpt imbalance %.3f\n",
                skew_plan.groupSizes.size(), // each chain is 1 task
                skew_engine.threads(),
                skew_engine.threads() == 1 ? "" : "s", skew_s,
                sched.busyFractionMin(), sched.busyFractionMax(),
                sched.lptImbalance);
    std::printf("service (loopback TCP, %zu cells): cold %.3fs "
                "(%.1f cells/sec), cached resubmit %.3fs (%.0f "
                "cells/sec), lifetime hit rate %.2f\n",
                service_cold.results.size(), service_s, service_cps,
                cache_hit_s, cache_hit_cps, cache_hit_rate);
    std::printf("dispatch (2-worker fleet, 1-thread local engine, "
                "%zu cells): %.3fs (%.1f cells/sec), %llu remote, "
                "%llu reclaims, worker utilization %.2f..%.2f\n",
                fleet_jobs.size(), fleet_s, dispatch_cps,
                static_cast<unsigned long long>(
                    fleet_batch.remoteCells),
                static_cast<unsigned long long>(
                    fleet_batch.leaseReclaims),
                fleet_util_min, fleet_util_max);

    JsonSink json(options.jsonPath);
    json.header({"bench", "sanitized", "cells", "refs_per_cell",
                 "threads",
                 "hardware_concurrency", "serial_seconds",
                 "parallel_seconds", "serial_cells_per_sec",
                 "parallel_cells_per_sec", "speedup", "reliable",
                 "serial_vs_parallel_overhead", "shard_fanout",
                 "shard_unsharded_seconds", "shard_replay_seconds",
                 "shard_checkpoint_seconds", "shard_overhead_replay",
                 "shard_overhead", "registry_builds_per_sec",
                 "refs_per_sec", "per_mechanism_seconds",
                 "single_pass_seconds", "single_pass_speedup",
                 "skew_seconds", "worker_busy_fraction_min",
                 "worker_busy_fraction_max", "lpt_imbalance",
                 "service_cells_per_sec", "cache_hit_cells_per_sec",
                 "cache_hit_rate", "dispatch_cells_per_sec",
                 "lease_reclaims", "worker_utilization_min",
                 "worker_utilization_max"});
    json.row({"sweep_baseline", TLBPF_BENCH_SANITIZED ? "true" : "false",
              std::to_string(jobs.size()),
              std::to_string(options.refs),
              std::to_string(options.threads),
              std::to_string(hardware),
              TablePrinter::num(serial_s, 4),
              TablePrinter::num(parallel_s, 4),
              TablePrinter::num(serial_cps, 2),
              TablePrinter::num(parallel_cps, 2),
              reliable ? TablePrinter::num(serial_s / parallel_s, 3)
                       : std::string("null"),
              reliable ? "true" : "false",
              TablePrinter::num(scheduler_overhead, 3),
              std::to_string(kShardFanout),
              TablePrinter::num(unsharded_s, 4),
              TablePrinter::num(replay_s, 4),
              TablePrinter::num(checkpoint_s, 4),
              TablePrinter::num(replay_s / unsharded_s, 3),
              TablePrinter::num(checkpoint_s / unsharded_s, 3),
              TablePrinter::num(builds_per_sec, 1),
              TablePrinter::num(refs_per_sec, 1),
              TablePrinter::num(per_mech_s, 4),
              TablePrinter::num(single_pass_s, 4),
              TablePrinter::num(single_pass_speedup, 3),
              TablePrinter::num(skew_s, 4),
              TablePrinter::num(sched.busyFractionMin(), 3),
              TablePrinter::num(sched.busyFractionMax(), 3),
              TablePrinter::num(sched.lptImbalance, 3),
              TablePrinter::num(service_cps, 2),
              TablePrinter::num(cache_hit_cps, 2),
              TablePrinter::num(cache_hit_rate, 3),
              TablePrinter::num(dispatch_cps, 2),
              std::to_string(fleet_batch.leaseReclaims),
              TablePrinter::num(fleet_util_min, 3),
              TablePrinter::num(fleet_util_max, 3)});
    json.finish();
    std::printf("wrote %s\n", options.jsonPath.c_str());
    return 0;
}
