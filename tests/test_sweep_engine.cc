/**
 * @file
 * Unit tests for the parallel sweep engine and its thread pool:
 * submission-order results, empty/single batches, exception
 * propagation from failing jobs (including bad workloads surfacing
 * as a clean fatal at the bench boundary instead of an abort from a
 * worker), and the ResultSink renderers.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "run/result_sink.hh"
#include "run/sweep_engine.hh"
#include "sim/experiment.hh"
#include "util/logging.hh"

namespace tlbpf
{
namespace
{

constexpr std::uint64_t kRefs = 20000;

std::vector<SweepJob>
mixedBatch()
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"gcc", "mcf", "swim"})
        for (const MechanismSpec &spec : table2Specs())
            jobs.push_back(SweepJob::functional(WorkloadSpec::app(app),
                                                spec, kRefs));
    MechanismSpec rp = MechanismSpec::parse("rp");
    jobs.push_back(SweepJob::timed(WorkloadSpec::app("ammp"), rp,
                                   kRefs));
    return jobs;
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::vector<std::atomic<int>> hits(257);
    for (auto &h : hits)
        h = 0;
    pool.parallelFor(hits.size(),
                     [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ThreadPool, ReusableAcrossBatches)
{
    ThreadPool pool(3);
    for (int round = 0; round < 5; ++round) {
        std::atomic<std::size_t> sum{0};
        pool.parallelFor(100, [&](std::size_t i) { sum += i; });
        EXPECT_EQ(sum, 4950u) << "round " << round;
    }
}

TEST(ThreadPool, ZeroSelectsHardwareConcurrency)
{
    ThreadPool pool(0);
    EXPECT_GE(pool.threadCount(), 1u);
}

TEST(ThreadPool, LowestIndexExceptionWins)
{
    ThreadPool pool(4);
    for (int round = 0; round < 3; ++round) {
        try {
            pool.parallelFor(64, [&](std::size_t i) {
                if (i % 7 == 3) // lowest failing index is 3
                    throw std::runtime_error(
                        "index " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 3");
        }
    }
    // The pool survives a failed batch.
    std::atomic<int> ran{0};
    pool.parallelFor(8, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran, 8);
}

/**
 * A skewed batch: a few jobs dominate the runtime.  Every worker must
 * execute at least one of the 64 jobs (the sleeps keep the batch
 * alive long enough for every worker to wake and take from the
 * cursor), every index must run exactly once, and the telemetry must
 * add up.
 */
TEST(ThreadPool, EveryWorkerParticipatesInUnevenWeightedBatch)
{
    ThreadPool pool(4);
    constexpr std::size_t kJobs = 64;
    std::vector<std::uint64_t> weights(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i)
        weights[i] = (i % 9 == 0) ? 400 : 25; // ~16x cost skew
    std::vector<std::atomic<int>> hits(kJobs);
    for (auto &h : hits)
        h = 0;
    pool.parallelForWeighted(weights, [&](std::size_t i) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(weights[i] * 5));
        ++hits[i];
    });
    for (std::size_t i = 0; i < kJobs; ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;

    const ThreadPool::BatchStats &stats = pool.lastBatchStats();
    EXPECT_EQ(stats.jobs, kJobs);
    EXPECT_GT(stats.seconds, 0.0);
    ASSERT_EQ(stats.workers.size(), 4u);
    std::uint64_t executed = 0;
    for (std::size_t w = 0; w < stats.workers.size(); ++w) {
        EXPECT_GE(stats.workers[w].jobs, 1u)
            << "worker " << w << " sat out the batch";
        EXPECT_GE(stats.workers[w].busySeconds, 0.0);
        executed += stats.workers[w].jobs;
    }
    EXPECT_EQ(executed, kJobs);
    EXPECT_GE(stats.lptImbalance, 1.0);
    EXPECT_GE(stats.busyFractionMin(), 0.0);
    EXPECT_GE(stats.busyFractionMax(), stats.busyFractionMin());
}

TEST(ThreadPool, SerialPoolRunsWeightedBatchInline)
{
    ThreadPool pool(1);
    std::vector<std::uint64_t> weights = {50, 1, 1, 90, 1, 7};
    std::vector<std::atomic<int>> hits(weights.size());
    for (auto &h : hits)
        h = 0;
    pool.parallelForWeighted(weights,
                             [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i], 1) << "index " << i;
    const ThreadPool::BatchStats &stats = pool.lastBatchStats();
    ASSERT_EQ(stats.workers.size(), 1u);
    EXPECT_EQ(stats.workers[0].jobs, weights.size());
    EXPECT_DOUBLE_EQ(stats.lptImbalance, 1.0);
}

/**
 * The hand-out order itself, observed on a pool of 1 (which walks the
 * order inline): a weighted batch runs heaviest first with ties in
 * index order, a zero weight counting as 1, and an unweighted batch
 * runs in index order.
 */
TEST(ThreadPool, WeightedBatchRunsHeaviestFirstTiesByIndex)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    std::vector<std::uint64_t> weights = {5, 9, 1, 9, 0, 5, 7};
    pool.parallelForWeighted(weights,
                             [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 6, 0, 5, 2, 4}));

    order.clear();
    pool.parallelFor(5, [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

/**
 * The point of the heaviest-first order: a batch's heaviest index
 * starts in the first wave, even when it is submitted last, instead of
 * running alone at the tail.  Every other job holds its thread until
 * the heaviest one has started (or a deadline passes), so at most
 * threadCount() - 1 jobs can start before it whatever the timing.
 */
TEST(ThreadPool, HeaviestIndexPlacedLastStartsInTheFirstWave)
{
    using Clock = std::chrono::steady_clock;
    ThreadPool pool(4);
    constexpr std::size_t kJobs = 32;
    std::vector<std::uint64_t> weights(kJobs, 10);
    weights[kJobs - 1] = 1000;
    for (int round = 0; round < 3; ++round) {
        std::atomic<std::size_t> started{0};
        std::atomic<std::size_t> heaviest_rank{kJobs};
        std::atomic<bool> heaviest_started{false};
        Clock::time_point deadline = Clock::now() + std::chrono::seconds(2);
        pool.parallelForWeighted(weights, [&](std::size_t i) {
            std::size_t rank = started.fetch_add(1);
            if (i == kJobs - 1) {
                heaviest_rank = rank;
                heaviest_started = true;
                return;
            }
            while (!heaviest_started && Clock::now() < deadline)
                std::this_thread::sleep_for(std::chrono::microseconds(20));
        });
        EXPECT_LT(heaviest_rank.load(), pool.threadCount())
            << "round " << round;
    }
}

/**
 * Exception determinism under the weighted order: the order hands the
 * failing indices out highest first, and no matter which worker ends
 * up with which index, the exception rethrown to the caller must be
 * the one from the lowest *submission* index, and every other index
 * must still have run.
 */
TEST(ThreadPool, LowestIndexExceptionWinsUnderWeightedOrder)
{
    ThreadPool pool(4);
    constexpr std::size_t kJobs = 64;
    std::vector<std::uint64_t> weights(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i)
        weights[i] = i + 1; // ascending: the order runs 63, 62, ...
    for (int round = 0; round < 3; ++round) {
        std::vector<std::atomic<int>> hits(kJobs);
        for (auto &h : hits)
            h = 0;
        try {
            pool.parallelForWeighted(weights, [&](std::size_t i) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                ++hits[i];
                if (i % 7 == 5) // lowest failing index is 5
                    throw std::runtime_error(
                        "index " + std::to_string(i));
            });
            FAIL() << "expected an exception in round " << round;
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "index 5") << "round " << round;
        }
        for (std::size_t i = 0; i < kJobs; ++i)
            EXPECT_EQ(hits[i], 1)
                << "index " << i << " skipped after a failure";
    }
}

TEST(SweepEngine, EmptyBatch)
{
    SweepEngine engine(4);
    EXPECT_TRUE(engine.run({}).empty());
}

TEST(SweepEngine, SingleJobMatchesDirectRun)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    SweepEngine engine(4);
    std::vector<SweepResult> results =
        engine.run({SweepJob::functional(WorkloadSpec::app("gcc"),
                                         dp, kRefs)});
    ASSERT_EQ(results.size(), 1u);
    SimResult direct = runFunctional(WorkloadSpec::parse("gcc"), dp, kRefs);
    EXPECT_EQ(results[0].functional.misses, direct.misses);
    EXPECT_EQ(results[0].functional.pbHits, direct.pbHits);
    EXPECT_EQ(results[0].mode, JobMode::Functional);
}

TEST(SweepEngine, ResultsComeBackInSubmissionOrder)
{
    std::vector<SweepJob> jobs = mixedBatch();
    SweepEngine engine(4);
    std::vector<SweepResult> parallel = engine.run(jobs);
    ASSERT_EQ(parallel.size(), jobs.size());
    // Slot i must hold exactly job i's outcome: compare against each
    // job run standalone.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SweepResult direct = runSweepJob(jobs[i]);
        EXPECT_EQ(parallel[i].functional.misses,
                  direct.functional.misses)
            << "slot " << i;
        EXPECT_EQ(parallel[i].functional.pbHits,
                  direct.functional.pbHits)
            << "slot " << i;
        EXPECT_EQ(parallel[i].mode, jobs[i].mode) << "slot " << i;
        if (jobs[i].mode == JobMode::Timed) {
            EXPECT_EQ(parallel[i].timed.cycles, direct.timed.cycles)
                << "slot " << i;
        }
    }
}

/**
 * Single-pass mode must be an invisible optimization: every counter
 * of every cell equals the per-mechanism run, for batches that group
 * fully (one workload, N mechanisms), batches that cannot group at
 * all, batches that group piecewise (workload changes mid-batch,
 * timed cells interleaved), and batches whose geometry context-
 * switches on a set-associative TLB.
 */
TEST(SweepEngine, SinglePassMatchesPerMechanismCellForCell)
{
    std::vector<std::vector<SweepJob>> batches;

    // The canonical shape: one workload, several mechanisms.
    std::vector<SweepJob> uniform;
    for (const char *spec : {"DP,256,D", "RP", "ASP,256,D", "MP,256,D"})
        uniform.push_back(
            SweepJob::functional(WorkloadSpec::app("mcf"),
                                 MechanismSpec::parse(spec), kRefs));
    batches.push_back(uniform);

    // Piecewise: workload flips mid-batch, a timed cell splits a
    // group, and a tail cell stands alone.
    std::vector<SweepJob> piecewise;
    MechanismSpec dp = MechanismSpec::parse("dp");
    MechanismSpec rp = MechanismSpec::parse("rp");
    piecewise.push_back(
        SweepJob::functional(WorkloadSpec::app("mcf"), dp, kRefs));
    piecewise.push_back(
        SweepJob::functional(WorkloadSpec::app("mcf"), rp, kRefs));
    piecewise.push_back(
        SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs));
    piecewise.push_back(
        SweepJob::timed(WorkloadSpec::app("gcc"), dp, kRefs));
    piecewise.push_back(
        SweepJob::functional(WorkloadSpec::app("gcc"), rp, kRefs));
    batches.push_back(piecewise);

    // Context switches on a set-associative TLB: flushes land mid-
    // block, and every mechanism's buffer and state reset with them.
    SimConfig switching;
    switching.tlb = TlbConfig{64, 4};
    switching.contextSwitchInterval = 3001;
    std::vector<SweepJob> flushed;
    for (const char *spec : {"DP,256,D", "RP", "MP,256,F", "none"})
        flushed.push_back(
            SweepJob::functional(WorkloadSpec::app("galgel"),
                                 MechanismSpec::parse(spec), kRefs,
                                 switching));
    batches.push_back(flushed);

    for (const std::vector<SweepJob> &jobs : batches) {
        SweepEngine engine(2);
        std::vector<SweepResult> per_mech =
            engine.run(jobs, PassMode::PerMechanism);
        std::vector<SweepResult> single_pass =
            engine.run(jobs, PassMode::SinglePass);
        ASSERT_EQ(per_mech.size(), jobs.size());
        ASSERT_EQ(single_pass.size(), jobs.size());
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            EXPECT_EQ(per_mech[i].functional, single_pass[i].functional)
                << "slot " << i;
            EXPECT_EQ(per_mech[i].mode, single_pass[i].mode)
                << "slot " << i;
            EXPECT_EQ(per_mech[i].mechanism, single_pass[i].mechanism)
                << "slot " << i;
            EXPECT_EQ(per_mech[i].workload, single_pass[i].workload)
                << "slot " << i;
        }
    }
}

TEST(SweepEngine, LastBatchStatsReflectTheMostRecentRun)
{
    std::vector<SweepJob> jobs = mixedBatch();
    SweepEngine engine(2);
    (void)engine.run(jobs);
    const ThreadPool::BatchStats &stats = engine.lastBatchStats();
    EXPECT_EQ(stats.jobs, jobs.size());
    ASSERT_EQ(stats.workers.size(), 2u);
    std::uint64_t executed = 0;
    for (const ThreadPool::WorkerStats &w : stats.workers)
        executed += w.jobs;
    EXPECT_EQ(executed, jobs.size());
    EXPECT_GE(stats.busyFractionMax(), stats.busyFractionMin());
}

TEST(SweepEngine, PassModeNamesRoundTrip)
{
    EXPECT_STREQ(passModeName(PassMode::PerMechanism),
                 "per-mechanism");
    EXPECT_STREQ(passModeName(PassMode::SinglePass), "single-pass");
    EXPECT_EQ(parsePassMode("per-mechanism"), PassMode::PerMechanism);
    EXPECT_EQ(parsePassMode("single-pass"), PassMode::SinglePass);
    EXPECT_THROW(parsePassMode("both"), std::invalid_argument);
}

TEST(SweepEngine, ZeroRefJobThrowsFromWorker)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    std::vector<SweepJob> jobs = {
        SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs),
        SweepJob::functional(WorkloadSpec::app("mcf"), dp,
                             0), // malformed
        SweepJob::functional(WorkloadSpec::app("swim"), dp, kRefs),
    };
    SweepEngine engine(4);
    EXPECT_THROW(engine.run(jobs), std::invalid_argument);
}

TEST(SweepEngine, UnknownAppThrowsFromWorker)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    SweepEngine engine(2);
    EXPECT_THROW(
        engine.run({SweepJob::functional(
            WorkloadSpec::app("no-such-app"), dp, kRefs)}),
        std::invalid_argument);
}

TEST(SweepEngine, BadWorkloadsInsideABatchThrowAfterTheBatchDrains)
{
    // Every flavour of bad workload must come back as the engine's
    // std::invalid_argument — never a process exit from a worker
    // thread — even when sandwiched between healthy cells.
    MechanismSpec dp = MechanismSpec::parse("dp");
    for (const char *bad :
         {"no-such-app", "trace:/nonexistent/trace.tpf",
          "mix:gcc+no-such-app@1k"}) {
        std::vector<SweepJob> jobs = {
            SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs),
            SweepJob::functional(WorkloadSpec::parse(bad), dp, kRefs),
            SweepJob::functional(WorkloadSpec::app("swim"), dp, kRefs),
        };
        SweepEngine engine(4);
        EXPECT_THROW(engine.run(jobs), std::invalid_argument) << bad;
    }
}

/** The bench boundary: engine exception -> tlbpf_fatal. */
void
runBatchAtBenchBoundary()
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    std::vector<SweepJob> jobs;
    jobs.push_back(
        SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs));
    jobs.push_back(SweepJob::functional(
        WorkloadSpec::app("no-such-app"), dp, kRefs));
    SweepEngine engine(4);
    try {
        engine.run(jobs);
    } catch (const std::invalid_argument &e) {
        tlbpf_fatal(e.what());
    }
    std::exit(2); // not reached
}

TEST(SweepEngine, BenchBoundaryConvertsBatchFailureToCleanFatalExit)
{
    // The bench binaries catch the engine's exception and
    // tlbpf_fatal from the main thread — the documented clean
    // fatal exit (code 1 with the offending workload named), not an
    // abort mid-pool.
    EXPECT_EXIT(runBatchAtBenchBoundary(),
                ::testing::ExitedWithCode(1),
                "unknown application model");
}

TEST(ResultSink, CsvQuotingAndLayout)
{
    std::ostringstream os;
    CsvSink csv(os);
    csv.header({"app", "note"});
    csv.row({"gcc", "plain"});
    csv.row({"mcf", "has,comma"});
    csv.finish();
    EXPECT_EQ(os.str(),
              "app,note\ngcc,plain\nmcf,\"has,comma\"\n");
}

TEST(ResultSink, JsonTypesNumbersAndStrings)
{
    std::ostringstream os;
    JsonSink json(os);
    json.header({"app", "accuracy", "n"});
    json.row({"gcc", "0.500000", "42"});
    json.row({"say \"hi\"", "-0.25", "1e3"});
    json.finish();
    EXPECT_EQ(os.str(),
              "[\n"
              "  {\"app\": \"gcc\", \"accuracy\": 0.500000, "
              "\"n\": 42},\n"
              "  {\"app\": \"say \\\"hi\\\"\", \"accuracy\": -0.25, "
              "\"n\": 1e3}\n"
              "]\n");
}

TEST(ResultSink, JsonRejectsNonJsonNumbers)
{
    EXPECT_EQ(JsonSink::cellValue("nan"), "\"nan\"");
    EXPECT_EQ(JsonSink::cellValue("-nan"), "\"-nan\"");
    EXPECT_EQ(JsonSink::cellValue("inf"), "\"inf\"");
    EXPECT_EQ(JsonSink::cellValue("-infinity"), "\"-infinity\"");
    EXPECT_EQ(JsonSink::cellValue("0x10"), "\"0x10\"");
    EXPECT_EQ(JsonSink::cellValue("12abc"), "\"12abc\"");
    EXPECT_EQ(JsonSink::cellValue("007"), "\"007\"");
    EXPECT_EQ(JsonSink::cellValue("1."), "\"1.\"");
    EXPECT_EQ(JsonSink::cellValue(".5"), "\".5\"");
    EXPECT_EQ(JsonSink::cellValue("-"), "\"-\"");
    EXPECT_EQ(JsonSink::cellValue("1e"), "\"1e\"");
    EXPECT_EQ(JsonSink::cellValue(""), "\"\"");
    EXPECT_EQ(JsonSink::cellValue("-3.5"), "-3.5");
    EXPECT_EQ(JsonSink::cellValue("0.25"), "0.25");
    EXPECT_EQ(JsonSink::cellValue("2e-3"), "2e-3");
    EXPECT_EQ(JsonSink::cellValue("0"), "0");
}

TEST(ResultSink, MultiSinkFansOut)
{
    std::ostringstream csv_os;
    std::ostringstream json_os;
    MultiSink multi;
    EXPECT_TRUE(multi.empty());
    multi.add(std::make_unique<CsvSink>(csv_os));
    multi.add(std::make_unique<JsonSink>(json_os));
    EXPECT_FALSE(multi.empty());
    multi.header({"k"});
    multi.row({"v"});
    multi.finish();
    EXPECT_EQ(csv_os.str(), "k\nv\n");
    EXPECT_NE(json_os.str().find("\"k\": \"v\""), std::string::npos);
}

TEST(Experiment, ParallelAccuracySweepMatchesSerial)
{
    std::vector<AccuracyCell> serial =
        accuracySweep(WorkloadSpec::parse("galgel"),
                      table2Specs(), kRefs, SimConfig{}, 1);
    std::vector<AccuracyCell> parallel =
        accuracySweep(WorkloadSpec::parse("galgel"),
                      table2Specs(), kRefs, SimConfig{}, 4);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].label, parallel[i].label);
        EXPECT_EQ(serial[i].accuracy, parallel[i].accuracy);
        EXPECT_EQ(serial[i].missRate, parallel[i].missRate);
    }
}

} // namespace
} // namespace tlbpf
