/**
 * @file
 * Unit tests for WorkloadSpec: the parse()/label() round-trip,
 * malformed-spec rejection, stream building for app/trace/mix
 * workloads, shard windows, and the bit-identity of sharded-and-
 * merged counters against the unsharded run.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>

#include "run/sweep_engine.hh"
#include "run_oracle.hh"
#include "sim/experiment.hh"
#include "trace/adaptors.hh"
#include "trace/trace_file.hh"
#include "workload/app_registry.hh"
#include "workload/workload_spec.hh"

#ifndef TLBPF_TEST_DATA_DIR
#error "tests must be compiled with TLBPF_TEST_DATA_DIR"
#endif

namespace tlbpf
{
namespace
{

const std::string kSampleTrace =
    std::string(TLBPF_TEST_DATA_DIR) + "/sample.tpf";

TEST(WorkloadSpecParse, BareNameIsAnApp)
{
    WorkloadSpec spec = WorkloadSpec::parse("mcf");
    EXPECT_EQ(spec.kind, WorkloadSpec::Kind::App);
    EXPECT_EQ(spec.appName, "mcf");
    EXPECT_FALSE(spec.sharded());
    EXPECT_EQ(spec.label(), "mcf");
}

TEST(WorkloadSpecParse, AppPrefixIsSugarForBareName)
{
    EXPECT_EQ(WorkloadSpec::parse("app:mcf"), WorkloadSpec::parse("mcf"));
    // The canonical form drops the app: prefix.
    EXPECT_EQ(WorkloadSpec::parse("app:mcf").label(), "mcf");
}

/**
 * Regression from fuzz_spec (the committed crashing input lives in
 * tests/data/fuzz_regressions/): 'app:app:m=2w)' used to parse as an
 * app literally named "app:m=2w)", whose label re-parsed as the app
 * "m=2w)" — one experiment, two result-cache identities.  App names
 * may not contain the scheme separator.
 */
TEST(WorkloadSpecParse, FuzzRegressionAppNamesWithColonsAreRejected)
{
    std::string input;
    {
        std::FILE *f = std::fopen(
            (std::string(TLBPF_TEST_DATA_DIR) +
             "/fuzz_regressions/spec_app_colon_label_roundtrip.txt")
                .c_str(),
            "rb");
        ASSERT_NE(f, nullptr);
        int c;
        while ((c = std::fgetc(f)) != EOF)
            input.push_back(static_cast<char>(c));
        std::fclose(f);
    }
    ASSERT_FALSE(input.empty());
    EXPECT_THROW(WorkloadSpec::parse(input), std::invalid_argument);
    EXPECT_THROW(WorkloadSpec::parse("app:app:mcf"),
                 std::invalid_argument);
    // The legitimate spellings still parse, with stable labels.
    EXPECT_EQ(WorkloadSpec::parse("app:mcf").label(), "mcf");
    // (the quantum canonicalizes to "5k"; the label must be a fixed
    // point of parse → label)
    const std::string canonical =
        WorkloadSpec::parse("mix:mcf+trace:x.tpf@5000").label();
    EXPECT_EQ(canonical, "mix:mcf+trace:x.tpf@5k");
    EXPECT_EQ(WorkloadSpec::parse(canonical).label(), canonical);
}

TEST(WorkloadSpecParse, TraceSpec)
{
    WorkloadSpec spec = WorkloadSpec::parse("trace:path/to/run.tpf");
    EXPECT_EQ(spec.kind, WorkloadSpec::Kind::Trace);
    EXPECT_EQ(spec.tracePath, "path/to/run.tpf");
    EXPECT_EQ(spec.label(), "trace:path/to/run.tpf");
}

TEST(WorkloadSpecParse, MixSpecWithQuantumSuffixes)
{
    WorkloadSpec spec = WorkloadSpec::parse("mix:mcf+gcc@100k");
    EXPECT_EQ(spec.kind, WorkloadSpec::Kind::Mix);
    ASSERT_EQ(spec.parts.size(), 2u);
    EXPECT_EQ(spec.parts[0].appName, "mcf");
    EXPECT_EQ(spec.parts[1].appName, "gcc");
    EXPECT_EQ(spec.quantum, 100000u);

    EXPECT_EQ(WorkloadSpec::parse("mix:a+b@2m").quantum, 2000000u);
    EXPECT_EQ(WorkloadSpec::parse("mix:a+b@1234").quantum, 1234u);
    WorkloadSpec with_trace =
        WorkloadSpec::parse("mix:mcf+trace:x.tpf@5000");
    EXPECT_EQ(with_trace.parts[1].kind, WorkloadSpec::Kind::Trace);
}

TEST(WorkloadSpecParse, ShardSuffix)
{
    WorkloadSpec spec = WorkloadSpec::parse("mcf#2/8");
    EXPECT_TRUE(spec.sharded());
    EXPECT_EQ(spec.shardIndex, 2u);
    EXPECT_EQ(spec.shardCount, 8u);
    EXPECT_EQ(spec.base(), WorkloadSpec::app("mcf"));
}

TEST(WorkloadSpecParse, LabelRoundTrips)
{
    for (const char *text : {
             "mcf",
             "trace:/tmp/a.tpf",
             "mix:mcf+gcc@100k",
             "mix:mcf+gcc+swim@2m",
             "mix:mcf+trace:x.tpf@1234",
             "mcf#0/4",
             "trace:/tmp/a.tpf#3/7",
             "mix:mcf+gcc@100k#2/8",
         }) {
        WorkloadSpec spec = WorkloadSpec::parse(text);
        EXPECT_EQ(spec.label(), text) << text;
        EXPECT_EQ(WorkloadSpec::parse(spec.label()), spec) << text;
    }
}

TEST(WorkloadSpecParse, MalformedSpecsThrow)
{
    for (const char *text : {
             "",                     // empty
             "app:",                 // app with no name
             "trace:",               // trace with no path
             "foo:bar",              // unknown scheme prefix
             "mix:@100k",            // zero apps
             "mix:mcf@100k",         // one app is not a mix
             "mix:mcf+gcc",          // missing quantum
             "mix:mcf+gcc@",         // empty quantum
             "mix:mcf+gcc@0",        // zero quantum
             "mix:mcf+gcc@12q",      // bad suffix
             "mix:mcf+gcc@k",        // suffix without digits
             "mix:a+mix:b+c@5@9",    // nested mix
             "mcf#5/3",              // shard index out of range
             "mcf#3/3",              // shard index == count
             "mcf#/4",               // missing index
             "mcf#1/",               // missing count
             "mcf#x/y",              // non-numeric shard
             "mcf#2",                // no slash
             "#1/2",                 // shard of nothing
             "mix:mcf+gcc#0/2@5k",   // shard inside the part list
         }) {
        EXPECT_THROW(WorkloadSpec::parse(text), std::invalid_argument)
            << "'" << text << "' should not parse";
    }
}

TEST(WorkloadSpecBuild, UnknownAppThrows)
{
    EXPECT_THROW(WorkloadSpec::app("no-such-app").build(1000),
                 std::invalid_argument);
    EXPECT_THROW(
        WorkloadSpec::parse("mix:mcf+no-such-app@1k").build(1000),
        std::invalid_argument);
}

TEST(WorkloadSpecBuild, MissingOrInvalidTraceThrows)
{
    EXPECT_THROW(
        WorkloadSpec::trace("/nonexistent/trace.tpf").build(1000),
        std::invalid_argument);

    std::string bogus = ::testing::TempDir() + "bogus.tpf";
    std::FILE *f = std::fopen(bogus.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("NOT A TRACE", f);
    std::fclose(f);
    EXPECT_THROW(WorkloadSpec::trace(bogus).build(1000),
                 std::invalid_argument);
    std::remove(bogus.c_str());
}

TEST(WorkloadSpecBuild, ZeroRefsThrows)
{
    EXPECT_THROW(WorkloadSpec::app("mcf").build(0),
                 std::invalid_argument);
}

TEST(WorkloadSpecBuild, TraceStreamReplaysTheSample)
{
    auto stream = WorkloadSpec::trace(kSampleTrace).build(1000000);
    auto refs = collect(*stream);
    TraceReader direct(kSampleTrace);
    EXPECT_EQ(refs.size(), direct.count());
    EXPECT_GT(refs.size(), 100u);
}

TEST(WorkloadSpecBuild, MixInterleavesDisjointAddressSpaces)
{
    auto spec = WorkloadSpec::parse("mix:mcf+gcc@50");
    auto stream = spec.build(2000);
    auto refs = collect(*stream);
    ASSERT_EQ(refs.size(), 2000u);

    bool saw_low = false;
    bool saw_high = false;
    std::uint64_t prev_icount = 0;
    for (const MemRef &ref : refs) {
        if (ref.vaddr < kMixAddressStride)
            saw_low = true;
        else
            saw_high = true;
        // The global instruction counter must be monotone even
        // though each part carries its own icounts.
        EXPECT_GE(ref.icount, prev_icount);
        prev_icount = ref.icount;
    }
    EXPECT_TRUE(saw_low);
    EXPECT_TRUE(saw_high);

    // Deterministic rebuild and reset().
    auto again = collect(*spec.build(2000));
    EXPECT_EQ(refs, again);
    stream->reset();
    EXPECT_EQ(collect(*stream), refs);
}

TEST(WorkloadSpecShard, WindowsPartitionTheBudget)
{
    std::uint64_t covered = 0;
    std::uint64_t expected_begin = 0;
    for (std::uint32_t k = 0; k < 8; ++k) {
        auto [begin, end] =
            WorkloadSpec::app("mcf").withShard(k, 8).shardWindow(1003);
        EXPECT_EQ(begin, expected_begin);
        EXPECT_GE(end, begin);
        covered += end - begin;
        expected_begin = end;
    }
    EXPECT_EQ(covered, 1003u);
}

TEST(WorkloadSpecShard, PrimeRefCountsPartitionExactly)
{
    // refs % N != 0: every window must be non-empty, contiguous and
    // cover [0, refs) exactly — no reference simulated twice, none
    // dropped.
    for (std::uint64_t refs : {1009u, 7919u, 104729u}) {
        for (std::uint32_t shards : {2u, 3u, 8u, 64u}) {
            std::uint64_t expected_begin = 0;
            for (std::uint32_t k = 0; k < shards; ++k) {
                auto [begin, end] = WorkloadSpec::app("mcf")
                                        .withShard(k, shards)
                                        .shardWindow(refs);
                EXPECT_EQ(begin, expected_begin)
                    << refs << " refs, shard " << k << "/" << shards;
                EXPECT_GT(end, begin)
                    << refs << " refs, shard " << k << "/" << shards
                    << " is empty";
                expected_begin = end;
            }
            EXPECT_EQ(expected_begin, refs);
        }
    }
}

TEST(WorkloadSpecMix, DegenerateMixesAreRejectedAtConstruction)
{
    // quantum = 0 and single-part mixes must fail with an actionable
    // error instead of building a degenerate interleaving.
    EXPECT_THROW(WorkloadSpec::mix({WorkloadSpec::app("mcf")}, 1000),
                 std::invalid_argument);
    EXPECT_THROW(WorkloadSpec::mix({}, 1000), std::invalid_argument);
    EXPECT_THROW(WorkloadSpec::mix({WorkloadSpec::app("mcf"),
                                    WorkloadSpec::app("gcc")},
                                   0),
                 std::invalid_argument);
    try {
        WorkloadSpec::mix({WorkloadSpec::app("mcf")}, 0);
        FAIL() << "single-part mix must throw";
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find("two parts"),
                  std::string::npos)
            << "error should explain the two-part requirement: "
            << e.what();
    }

    // The parse path rejects the same shapes with the mix label.
    EXPECT_THROW(WorkloadSpec::parse("mix:mcf@100k"),
                 std::invalid_argument);
    EXPECT_THROW(WorkloadSpec::parse("mix:mcf+gcc@0"),
                 std::invalid_argument);
}

TEST(WorkloadSpecShard, WithShardValidates)
{
    EXPECT_THROW(WorkloadSpec::app("mcf").withShard(3, 3),
                 std::invalid_argument);
    EXPECT_THROW(WorkloadSpec::app("mcf").withShard(0, 0),
                 std::invalid_argument);
}

/** Every counter of a SimResult, in declaration order. */
std::vector<std::uint64_t>
counters(const SimResult &r)
{
    return {r.refs,
            r.misses,
            r.pbHits,
            r.demandFetches,
            r.prefetchesIssued,
            r.prefetchesSuppressed,
            r.stateOps,
            r.pbEvictedUnused,
            r.footprintPages,
            r.contextSwitches};
}

TEST(WorkloadSpecShard, ExpandShardsClampsFanoutToRefs)
{
    MechanismSpec dp = MechanismSpec::parse("dp");

    // N = refs + 1 (and far beyond): the fan-out must clamp to refs
    // single-reference windows, never produce an empty shard.
    for (std::uint64_t refs : {1u, 5u, 7u}) {
        SweepJob job =
            SweepJob::functional(WorkloadSpec::app("gcc"), dp, refs);
        std::uint32_t shards = static_cast<std::uint32_t>(refs) + 1;
        ShardPlan plan = expandShards({job}, shards);
        if (refs == 1) {
            // A single reference cannot be split at all.
            ASSERT_EQ(plan.jobs.size(), 1u);
            EXPECT_FALSE(plan.jobs[0].workload.sharded());
        } else {
            ASSERT_EQ(plan.jobs.size(), refs);
        }
        std::uint64_t expected_begin = 0;
        for (const SweepJob &shard : plan.jobs) {
            auto [begin, end] = shard.workload.shardWindow(refs);
            EXPECT_EQ(begin, expected_begin);
            EXPECT_GT(end, begin);
            expected_begin = end;
        }
        EXPECT_EQ(expected_begin, refs);

        // And the merged counters still equal the unsharded run, in
        // both warm-up modes.
        SweepResult unsharded = runSweepJob(job);
        for (ShardWarmup warmup :
             {ShardWarmup::Replay, ShardWarmup::Checkpoint}) {
            std::vector<SweepResult> merged =
                SweepEngine(2).runSharded(
                    expandShards({job}, shards), warmup);
            ASSERT_EQ(merged.size(), 1u);
            EXPECT_EQ(counters(merged[0].functional),
                      counters(unsharded.functional))
                << refs << " refs at " << shards << " shards, "
                << shardWarmupName(warmup) << " warm-up";
        }
    }

    // A prime ref budget through the full map/reduce.
    SweepJob prime =
        SweepJob::functional(WorkloadSpec::app("gcc"), dp, 1009);
    SweepResult unsharded = runSweepJob(prime);
    for (ShardWarmup warmup :
         {ShardWarmup::Replay, ShardWarmup::Checkpoint}) {
        std::vector<SweepResult> merged =
            SweepEngine(2).runSharded(expandShards({prime}, 8),
                                      warmup);
        ASSERT_EQ(merged.size(), 1u);
        EXPECT_EQ(counters(merged[0].functional),
                  counters(unsharded.functional))
            << shardWarmupName(warmup);
    }
}

TEST(WorkloadSpecShard, MergedCountersAreBitIdenticalToUnsharded)
{
    constexpr std::uint64_t kRefs = 30000;
    MechanismSpec dp = MechanismSpec::parse("dp");

    for (const char *workload :
         {"gcc", "mix:mcf+gcc@1k"}) {
        SweepJob cell = SweepJob::functional(
            WorkloadSpec::parse(workload), dp, kRefs);
        SweepResult unsharded = runSweepJob(cell);

        for (std::uint32_t shards : {2u, 8u}) {
            ShardPlan plan = expandShards({cell}, shards);
            ASSERT_EQ(plan.jobs.size(), shards);
            ASSERT_EQ(plan.groupSizes,
                      std::vector<std::uint32_t>{shards});
            std::vector<SweepResult> merged = mergeShardResults(
                plan, SweepEngine(4).run(plan.jobs));
            ASSERT_EQ(merged.size(), 1u);
            EXPECT_EQ(counters(merged[0].functional),
                      counters(unsharded.functional))
                << workload << " at " << shards << " shards";
            EXPECT_EQ(merged[0].workload, unsharded.workload);
        }
    }
}

TEST(WorkloadSpecShard, EngineRunShardedMatchesPlainRun)
{
    constexpr std::uint64_t kRefs = 20000;
    MechanismSpec dp = MechanismSpec::parse("dp");
    std::vector<SweepJob> jobs = {
        SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs),
        SweepJob::functional(WorkloadSpec::app("swim"), dp, kRefs),
    };
    SweepEngine engine(4);
    std::vector<SweepResult> plain = engine.run(jobs);
    std::vector<SweepResult> sharded = engine.runSharded(expandShards(jobs, 4));
    ASSERT_EQ(sharded.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i)
        EXPECT_EQ(counters(sharded[i].functional),
                  counters(plain[i].functional))
            << "cell " << i;
}

TEST(WorkloadSpecShard, ExplicitSingleShardJobsPassThroughUnmerged)
{
    // A caller distributing a sweep across machines submits explicit
    // spec#k/N cells and must get each shard's own result back —
    // never a merge error, and never accidental folding of adjacent
    // cells that happen to look like consecutive shards.
    constexpr std::uint64_t kRefs = 20000;
    MechanismSpec dp = MechanismSpec::parse("dp");
    SweepEngine engine(2);
    std::vector<SweepJob> both = {
        SweepJob::functional(WorkloadSpec::parse("gcc#0/2"), dp,
                             kRefs),
        SweepJob::functional(WorkloadSpec::parse("gcc#1/2"), dp,
                             kRefs),
    };
    ShardPlan plan = expandShards(both, 4); // --shards must not touch
    ASSERT_EQ(plan.jobs.size(), 2u);
    ASSERT_EQ(plan.groupSizes, (std::vector<std::uint32_t>{1, 1}));
    std::vector<SweepResult> results =
        mergeShardResults(plan, engine.run(plan.jobs));
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].workload, "gcc#0/2");
    EXPECT_EQ(results[1].workload, "gcc#1/2");

    // Folding the distributed slices back together is a manual
    // addCounters fold, and reproduces the unsharded run.
    SimResult folded;
    addCounters(folded, results[0].functional);
    addCounters(folded, results[1].functional);
    SweepResult unsharded = runSweepJob(
        SweepJob::functional(WorkloadSpec::app("gcc"), dp, kRefs));
    EXPECT_EQ(counters(folded), counters(unsharded.functional));
}

TEST(WorkloadSpecBuild, CorruptTraceBodyThrowsInsteadOfExiting)
{
    // A trace with a valid header whose body is truncated (the count
    // field promises more records than the file holds) must surface
    // as std::invalid_argument from an engine batch — never a
    // worker-thread exit.
    std::string truncated = ::testing::TempDir() + "truncated.tpf";
    {
        std::string bytes;
        std::FILE *f = std::fopen(kSampleTrace.c_str(), "rb");
        ASSERT_NE(f, nullptr);
        int c;
        while ((c = std::fgetc(f)) != EOF)
            bytes.push_back(static_cast<char>(c));
        std::fclose(f);
        f = std::fopen(truncated.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
        std::fclose(f);
    }
    MechanismSpec dp = MechanismSpec::parse("dp");
    SweepEngine engine(4);
    EXPECT_THROW(
        engine.run({SweepJob::functional(
            WorkloadSpec::trace(truncated), dp, 1000000)}),
        std::invalid_argument);
    std::remove(truncated.c_str());
}

TEST(WorkloadSpecShard, ShardedTimingCellIsRejected)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    SweepJob job = SweepJob::timed(
        WorkloadSpec::app("gcc").withShard(0, 2), dp, 1000);
    EXPECT_THROW(runSweepJob(job), std::invalid_argument);
}

TEST(SweepResultLabels, ResolvedWorkloadLabelIsRecorded)
{
    MechanismSpec dp = MechanismSpec::parse("dp");
    SweepResult r = runSweepJob(SweepJob::functional(
        WorkloadSpec::parse("mix:mcf+gcc@1k"), dp, 5000));
    EXPECT_EQ(r.workload, "mix:mcf+gcc@1k");

    SweepResult shard = runSweepJob(SweepJob::functional(
        WorkloadSpec::parse("gcc#1/4"), dp, 5000));
    EXPECT_EQ(shard.workload, "gcc#1/4");
}

TEST(WorkloadSpecCli, ParseWorkloadOrDieExitsOnSyntaxError)
{
    EXPECT_EQ(parseWorkloadOrDie("mcf"), WorkloadSpec::app("mcf"));
    EXPECT_EXIT((void)parseWorkloadOrDie("mix:@100k"),
                ::testing::ExitedWithCode(1), "malformed workload");
}

/**
 * nextBatch() must be observationally identical to a next() loop on
 * every stream the workload layer can build: all 56 registered app
 * models (which between them exercise every synthetic generator, the
 * adaptors and the pacing wrapper), a mix, and a trace replay.
 */
TEST(StreamBatching, NextBatchMatchesNextOnEveryWorkloadShape)
{
    constexpr std::uint64_t kRefs = 2000;
    std::vector<std::string> specs;
    for (const AppModel &app : appRegistry())
        specs.push_back(app.name);
    specs.push_back("mix:mcf+gcc@500");
    specs.push_back("trace:" + kSampleTrace);

    for (const std::string &text : specs) {
        WorkloadSpec spec = WorkloadSpec::parse(text);
        auto via_next = spec.build(kRefs);
        std::vector<MemRef> expected;
        MemRef r;
        while (via_next->next(r))
            expected.push_back(r);

        for (std::size_t batch : {1u, 7u, 64u}) {
            auto via_batch = spec.build(kRefs);
            std::vector<MemRef> got_refs;
            std::vector<MemRef> buf(batch);
            std::size_t got;
            while ((got = via_batch->nextBatch(buf.data(), batch)) >
                   0) {
                got_refs.insert(
                    got_refs.end(), buf.begin(),
                    buf.begin() + static_cast<std::ptrdiff_t>(got));
                if (got < batch)
                    break;
            }
            ASSERT_EQ(got_refs.size(), expected.size())
                << text << " batch " << batch;
            EXPECT_TRUE(got_refs == expected)
                << text << " batch " << batch
                << ": batched refs diverge from next() refs";
        }

        // Mixing the two call styles mid-stream is equally exact.
        auto mixed = spec.build(kRefs);
        std::vector<MemRef> got_refs;
        std::vector<MemRef> buf(13);
        for (;;) {
            if (got_refs.size() % 2 == 0) {
                if (!mixed->next(r))
                    break;
                got_refs.push_back(r);
            } else {
                std::size_t got =
                    mixed->nextBatch(buf.data(), buf.size());
                got_refs.insert(
                    got_refs.end(), buf.begin(),
                    buf.begin() + static_cast<std::ptrdiff_t>(got));
                if (got < buf.size())
                    break;
            }
        }
        EXPECT_TRUE(got_refs == expected)
            << text << ": interleaved next/nextBatch diverges";
    }
}

/**
 * nextRuns() against the nextBatch() oracle on every stream shape the
 * workload layer builds: all 56 app models (between them every
 * generator, the adaptors and the pacing wrapper), mixes, a trace and
 * shard windows (the Skip+Take a shard cell replays), at every run
 * test page size, under seeded random chunkings with and without
 * nextBatch() calls interleaved.
 */
TEST(StreamRuns, ExpandToNextBatchOnEveryWorkloadShape)
{
    constexpr std::uint64_t kRefs = 3000;
    std::vector<std::string> specs;
    for (const AppModel &app : appRegistry())
        specs.push_back(app.name);
    specs.push_back("mix:mcf+gcc@500");
    specs.push_back("mix:art+swim+vpr@77");
    specs.push_back("trace:" + kSampleTrace);
    specs.push_back("galgel#2/5");
    specs.push_back("mix:mcf+gcc@500#1/3");

    auto window = [&](const WorkloadSpec &spec) {
        auto [begin, end] = spec.shardWindow(kRefs);
        return std::make_unique<TakeStream>(
            std::make_unique<SkipStream>(spec.base().build(kRefs),
                                         begin),
            end - begin);
    };
    std::uint64_t seed = 1;
    for (const std::string &text : specs) {
        WorkloadSpec spec = WorkloadSpec::parse(text);
        std::vector<MemRef> oracle = test::drainRefs(*window(spec));
        ASSERT_FALSE(oracle.empty()) << text;
        for (std::uint64_t page : test::runTestPageSizes()) {
            for (bool interleave : {false, true}) {
                test::expectRunsMatch(*window(spec), oracle, page,
                                      seed++, interleave, text);
                if (HasFatalFailure())
                    return;
            }
        }
    }
}

} // namespace
} // namespace tlbpf
