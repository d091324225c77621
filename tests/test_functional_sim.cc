/**
 * @file
 * Tests for the functional simulator: metric definitions, the
 * prefetch-buffer promotion flow, and duplicate suppression.
 */

#include <gtest/gtest.h>

#include "prefetch/mech_spec.hh"
#include "sim/experiment.hh"
#include "sim/functional_sim.hh"
#include "trace/ref_stream.hh"
#include "util/random.hh"
#include "workload/app_registry.hh"
#include "workload/workload_spec.hh"

namespace tlbpf
{
namespace
{

std::unique_ptr<VectorStream>
pageStream(std::initializer_list<Vpn> pages, Addr pc = 0x4000)
{
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (Vpn p : pages) {
        refs.push_back(MemRef{p * kDefaultPageBytes, pc, false, icount});
        icount += 3;
    }
    return std::make_unique<VectorStream>(std::move(refs));
}

SimConfig
tinyConfig()
{
    SimConfig config;
    config.tlb = TlbConfig{4, 0};
    config.pbEntries = 4;
    return config;
}

MechanismSpec
spec(const std::string &text)
{
    return MechanismSpec::parse(text);
}

TEST(FunctionalSim, CountsRefsAndMisses)
{
    auto stream = pageStream({1, 1, 2, 1, 3});
    SimResult r = simulate(tinyConfig(), spec("none"), *stream);
    EXPECT_EQ(r.refs, 5u);
    EXPECT_EQ(r.misses, 3u); // 1, 2, 3 cold; repeats hit
    EXPECT_EQ(r.demandFetches, 3u);
    EXPECT_EQ(r.pbHits, 0u);
    EXPECT_DOUBLE_EQ(r.missRate(), 0.6);
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.0);
    EXPECT_EQ(r.footprintPages, 3u);
}

TEST(FunctionalSim, LruEvictionCausesCapacityMisses)
{
    // TLB of 4 entries cycling over 5 pages: every access misses after
    // warmup.
    std::vector<MemRef> refs;
    for (int pass = 0; pass < 3; ++pass)
        for (Vpn p = 0; p < 5; ++p)
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    VectorStream stream(std::move(refs));
    SimResult r = simulate(tinyConfig(), spec("none"), stream);
    EXPECT_EQ(r.misses, 15u);
}

TEST(FunctionalSim, SequentialPrefetcherConvertsMissesToBufferHits)
{
    // Pages 0..9 once: SP prefetches p+1 on each miss, so only page 0
    // truly demand-misses.
    std::vector<MemRef> refs;
    for (Vpn p = 0; p < 10; ++p)
        refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    VectorStream stream(std::move(refs));
    SimResult r = simulate(tinyConfig(), spec("sp"), stream);
    EXPECT_EQ(r.misses, 10u); // still TLB misses by definition
    EXPECT_EQ(r.pbHits, 9u);
    EXPECT_EQ(r.demandFetches, 1u);
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.9);
}

TEST(FunctionalSim, PrefetchingNeverChangesTlbMissCount)
{
    // The buffer is outside the TLB: on every miss the page enters the
    // TLB either way, so the TLB miss sequence is identical across
    // schemes (the paper: prefetching cannot increase the miss rate).
    std::vector<MemRef> refs;
    std::uint64_t x = 12345;
    for (int i = 0; i < 4000; ++i) {
        Vpn p = splitMix64(x) % 64;
        refs.push_back(MemRef{p * kDefaultPageBytes,
                              0x4000 + (p % 7) * 4, false,
                              static_cast<std::uint64_t>(i) * 3});
    }
    std::uint64_t baseline = 0;
    bool first = true;
    for (const char *text : {"none", "sp", "asp(rows=64)",
                             "mp(rows=64)", "rp", "dp(rows=64)"}) {
        VectorStream stream(refs);
        SimResult r = simulate(tinyConfig(), spec(text), stream);
        if (first) {
            baseline = r.misses;
            first = false;
        }
        EXPECT_EQ(r.misses, baseline) << text;
    }
    EXPECT_GT(baseline, 0u);
}

TEST(FunctionalSim, DuplicatePrefetchesSuppressed)
{
    // Sequential stream with SP: each miss wants p+1, which is never
    // already buffered (it was consumed), but p+1 may be in the TLB on
    // wrap-around.  Craft a direct duplicate: page already in TLB.
    auto stream = pageStream({5, 4, 5, 6});
    // miss 5 -> prefetch 6; miss 4 -> prefetch 5 (5 is in TLB:
    // suppressed); 5 hits TLB; 6 hits buffer.
    SimResult r = simulate(tinyConfig(), spec("sp"), *stream);
    EXPECT_GE(r.prefetchesSuppressed, 1u);
    EXPECT_EQ(r.pbHits, 1u);
}

TEST(FunctionalSim, BufferHitPromotesToTlb)
{
    FunctionalSimulator sim(tinyConfig(), spec("sp"));
    auto feed = [&sim](Vpn p) {
        sim.process(MemRef{p * kDefaultPageBytes, 0, false, 0});
    };
    feed(1); // miss, prefetch 2
    EXPECT_TRUE(sim.buffer().contains(2));
    feed(2); // buffer hit -> promoted
    EXPECT_FALSE(sim.buffer().contains(2));
    EXPECT_TRUE(sim.tlb().contains(2));
    EXPECT_EQ(sim.result().pbHits, 1u);
}

TEST(FunctionalSim, RpStateOpsCounted)
{
    std::vector<MemRef> refs;
    for (int pass = 0; pass < 4; ++pass)
        for (Vpn p = 0; p < 12; ++p)
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    VectorStream stream(std::move(refs));
    SimResult rp = simulate(tinyConfig(), spec("rp"), stream);
    EXPECT_GT(rp.stateOps, 0u);
    stream.reset();
    SimResult dp = simulate(tinyConfig(), spec("dp(rows=64)"), stream);
    EXPECT_EQ(dp.stateOps, 0u);
    EXPECT_GT(rp.memOpsPerMiss(), dp.memOpsPerMiss());
}

TEST(FunctionalSim, AccuracyIsZeroWithoutPrefetcher)
{
    auto stream = pageStream({1, 2, 3, 1, 2, 3});
    SimResult r = simulate(tinyConfig(), spec("none"), *stream);
    EXPECT_EQ(r.prefetchesIssued, 0u);
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.0);
}

TEST(FunctionalSim, EmptyStreamYieldsZeroedResult)
{
    VectorStream stream(std::vector<MemRef>{});
    SimResult r = simulate(tinyConfig(), spec("dp(rows=64)"), stream);
    EXPECT_EQ(r.refs, 0u);
    EXPECT_DOUBLE_EQ(r.missRate(), 0.0);
    EXPECT_DOUBLE_EQ(r.accuracy(), 0.0);
}

TEST(FunctionalSim, SmallerTlbMissesMore)
{
    std::vector<MemRef> refs;
    std::uint64_t x = 777;
    for (int i = 0; i < 5000; ++i) {
        Vpn p = splitMix64(x) % 32;
        refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    }
    SimConfig small = tinyConfig(); // 4 entries
    SimConfig large = tinyConfig();
    large.tlb.entries = 16;
    VectorStream s1(refs);
    VectorStream s2(refs);
    SimResult r_small = simulate(small, spec("none"), s1);
    SimResult r_large = simulate(large, spec("none"), s2);
    EXPECT_GT(r_small.misses, r_large.misses);
}

TEST(FunctionalSim, ContextSwitchFlushesEverything)
{
    // 3 pages fit the 4-entry TLB, so after warmup there are no
    // misses — unless context switches flush the TLB.
    std::vector<MemRef> refs;
    for (int pass = 0; pass < 100; ++pass)
        for (Vpn p = 0; p < 3; ++p)
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    SimConfig no_switch = tinyConfig();
    SimConfig switching = tinyConfig();
    switching.contextSwitchInterval = 30;
    VectorStream s1(refs);
    VectorStream s2(refs);
    SimResult base = simulate(no_switch, spec("none"), s1);
    SimResult flushed = simulate(switching, spec("none"), s2);
    EXPECT_EQ(base.misses, 3u);
    EXPECT_EQ(flushed.contextSwitches, 9u); // 300 refs / 30 - 1
    EXPECT_EQ(flushed.misses, 3u + 9u * 3u);
}

TEST(FunctionalSim, ContextSwitchResetsPrefetcherState)
{
    // DP on a sequential stream: with switching, the first post-flush
    // miss cannot be predicted (history gone), so accuracy drops.
    std::vector<MemRef> refs;
    for (Vpn p = 0; p < 600; ++p)
        refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    SimConfig no_switch = tinyConfig();
    SimConfig switching = tinyConfig();
    switching.contextSwitchInterval = 10;
    VectorStream s1(refs);
    VectorStream s2(refs);
    SimResult base = simulate(no_switch, spec("dp(rows=64)"), s1);
    SimResult flushed = simulate(switching, spec("dp(rows=64)"), s2);
    EXPECT_GT(base.accuracy(), flushed.accuracy());
    EXPECT_GT(flushed.accuracy(), 0.0); // but DP re-learns quickly
}

TEST(FunctionalSim, TrainOnAllRefsFeedsHitsToThePrefetcher)
{
    // One page referenced repeatedly with stride-0 hits between the
    // misses: in full-feed mode DP observes the hits too (distance 0
    // self-loop) and behaviour stays well-defined.
    SimConfig full = tinyConfig();
    full.trainOnAllRefs = true;
    std::vector<MemRef> refs;
    for (Vpn p = 0; p < 40; ++p)
        for (int rep = 0; rep < 4; ++rep)
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false, 0});
    VectorStream s1(refs);
    SimResult r = simulate(full, spec("dp(rows=64)"), s1);
    EXPECT_LE(r.pbHits, r.misses);
    EXPECT_GT(r.accuracy(), 0.5); // sequential page walk still caught
}

TEST(FunctionalSim, PageSizeChangesFootprint)
{
    SimConfig base = tinyConfig();
    SimConfig big_pages = tinyConfig();
    big_pages.pageBytes = 16384;
    std::vector<MemRef> refs;
    for (Addr a = 0; a < 64 * 4096; a += 4096)
        refs.push_back(MemRef{a, 0, false, 0});
    VectorStream s1(refs);
    VectorStream s2(refs);
    SimResult r4k = simulate(base, spec("none"), s1);
    SimResult r16k = simulate(big_pages, spec("none"), s2);
    EXPECT_EQ(r4k.footprintPages, 64u);
    EXPECT_EQ(r16k.footprintPages, 16u);
    EXPECT_GT(r4k.misses, r16k.misses);
}

// ------------------------------------ the per-reference oracle

/**
 * The per-reference oracle every split or run-driven path is checked
 * against: FunctionalSimulator::process() on each reference of a
 * nextBatch() drain, so no page runs and a front-end with a single
 * back-end that shares its page table.
 * Snapshots are taken after every reference count in @p cuts (and
 * at the end) when the mechanism is checkpointable.
 */
struct OracleRun
{
    SimResult result;
    /** counter totals and snapshot bytes at each cut, then the end */
    std::vector<SimResult> atCut;
    std::vector<SimState> stateAtCut;
};

OracleRun
oracleRun(const SimConfig &config, const MechanismSpec &spec,
          RefStream &stream, const std::vector<std::uint64_t> &cuts = {})
{
    FunctionalSimulator sim(config, spec);
    OracleRun out;
    auto cut = [&] {
        out.atCut.push_back(sim.result());
        if (sim.checkpointable())
            out.stateAtCut.push_back(sim.snapshot());
    };
    std::vector<MemRef> block(kSimBatchRefs);
    std::uint64_t done = 0;
    std::size_t next_cut = 0;
    std::size_t got;
    while ((got = stream.nextBatch(block.data(), block.size())) > 0) {
        for (std::size_t i = 0; i < got; ++i) {
            while (next_cut < cuts.size() && cuts[next_cut] == done) {
                cut();
                ++next_cut;
            }
            sim.process(block[i]);
            ++done;
        }
    }
    for (; next_cut < cuts.size(); ++next_cut)
        cut();
    cut();
    out.result = sim.result();
    return out;
}

/** oracleRun()'s counters alone. */
SimResult
oracleSimulate(const SimConfig &config, const MechanismSpec &spec,
               RefStream &stream)
{
    return oracleRun(config, spec, stream).result;
}

/**
 * The geometries every differential suite sweeps beyond the default:
 * set-associative TLBs, context switches at every reference and at
 * an interval that divides no batch, trainOnAllRefs with and without
 * switches, a one-entry buffer, and 8 KiB pages and a page size that
 * is not a power of two.
 */
std::vector<SimConfig>
differentialConfigs()
{
    std::vector<SimConfig> configs;
    auto add = [&](auto &&edit) {
        SimConfig config;
        edit(config);
        configs.push_back(config);
    };
    add([](SimConfig &c) { c.tlb = TlbConfig{64, 4}; });
    add([](SimConfig &c) { c.tlb = TlbConfig{256, 2}; });
    add([](SimConfig &c) { c.contextSwitchInterval = 1; });
    // Does not divide kSimBatchRefs: flushes land mid-block.
    add([](SimConfig &c) { c.contextSwitchInterval = 3001; });
    add([](SimConfig &c) {
        c.tlb = TlbConfig{64, 4};
        c.contextSwitchInterval = 5000;
    });
    add([](SimConfig &c) { c.trainOnAllRefs = true; });
    add([](SimConfig &c) {
        c.trainOnAllRefs = true;
        c.contextSwitchInterval = 3001;
    });
    add([](SimConfig &c) { c.pbEntries = 1; });
    add([](SimConfig &c) { c.pageBytes = 8192; });
    add([](SimConfig &c) { c.pageBytes = 12288; }); // not a power of 2
    return configs;
}

std::string
describe(const SimConfig &config)
{
    return testing::PrintToString(config.tlb.entries) + "/" +
           testing::PrintToString(config.tlb.assoc) + " pb " +
           testing::PrintToString(config.pbEntries) + " page " +
           testing::PrintToString(config.pageBytes) + " cs " +
           testing::PrintToString(config.contextSwitchInterval) +
           " all-refs " + testing::PrintToString(config.trainOnAllRefs);
}

// ------------------------------------------- simulateMany vs simulate

/**
 * An open-registry mechanism that materialises its own targets in its
 * page table: stride echo (predict vpn + the last miss-to-miss
 * delta).  It is the one mechanism here whose table holds pages the
 * TLB never missed on, so it pins down footprintPages in the split
 * simulator.
 */
class StrideEcho : public Prefetcher
{
  public:
    explicit StrideEcho(PageTable &pt) : _pt(pt) {}

    void
    onMiss(const TlbMiss &miss, PrefetchDecision &decision) override
    {
        if (_last != kNoPage) {
            Vpn target = miss.vpn + (miss.vpn - _last);
            _pt.lookup(target);
            decision.targets.push_back(target);
        }
        _last = miss.vpn;
    }

    void reset() override { _last = kNoPage; }
    std::string name() const override { return "ECHO"; }
    std::string label() const override { return "echo"; }
    HardwareProfile hardwareProfile() const override { return {}; }

  private:
    PageTable &_pt;
    Vpn _last = kNoPage;
};

/** Every mechanism the differential test runs, "echo" included. */
const std::vector<MechanismSpec> &
differentialSpecs()
{
    static const std::vector<MechanismSpec> specs = [] {
        MechanismEntry echo;
        echo.name = "echo";
        echo.shortName = "ECHO";
        echo.summary = "stride echo, registered by test_functional_sim";
        echo.build = [](const MechanismSpec &, PageTable &pt) {
            return std::make_unique<StrideEcho>(pt);
        };
        MechanismRegistry::instance().add(echo);

        std::vector<MechanismSpec> all = figure7Specs();
        for (const char *text :
             {"none", "sp", "sp(adaptive)", "rp(reach=2)",
              "hybrid(dp+rp+sp(adaptive))", "echo"})
            all.push_back(MechanismSpec::parse(text));
        return all;
    }();
    return specs;
}

/**
 * simulateMany over one stream must equal the per-reference oracle
 * of each spec over a fresh stream, counter for counter.
 */
void
expectManyMatchesOracle(const SimConfig &config,
                        const WorkloadSpec &workload,
                        std::uint64_t refs)
{
    const std::vector<MechanismSpec> &specs = differentialSpecs();
    auto shared = workload.build(refs);
    std::vector<SimResult> many = simulateMany(config, specs, *shared);
    ASSERT_EQ(many.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        auto fresh = workload.build(refs);
        SimResult oracle = oracleSimulate(config, specs[i], *fresh);
        EXPECT_EQ(many[i], oracle)
            << workload.label() << " under " << specs[i].label()
            << ": misses " << many[i].misses << " vs " << oracle.misses
            << ", pbHits " << many[i].pbHits << " vs " << oracle.pbHits
            << ", issued " << many[i].prefetchesIssued << " vs "
            << oracle.prefetchesIssued << ", footprint "
            << many[i].footprintPages << " vs " << oracle.footprintPages;
    }
}

TEST(SimulateMany, MatchesPerSpecOracleOnEveryApp)
{
    for (const AppModel &app : appRegistry())
        expectManyMatchesOracle(SimConfig{}, WorkloadSpec::app(app.name),
                                20000);
}

TEST(SimulateMany, MatchesPerSpecOracleAcrossGeometries)
{
    std::vector<WorkloadSpec> workloads;
    for (const std::string &name : highMissRateApps())
        workloads.push_back(WorkloadSpec::app(name));
    workloads.push_back(WorkloadSpec::app("eon")); // near-zero misses
    workloads.push_back(WorkloadSpec::parse(
        std::string("trace:") + TLBPF_TEST_DATA_DIR + "/sample.tpf"));
    workloads.push_back(WorkloadSpec::parse("mix:mcf+gcc@5k"));

    for (const SimConfig &config : differentialConfigs()) {
        // Every reference misses at interval 1: keep that one short.
        std::uint64_t refs =
            config.contextSwitchInterval == 1 ? 4000 : 20000;
        for (const WorkloadSpec &workload : workloads) {
            SCOPED_TRACE("tlb " + describe(config));
            expectManyMatchesOracle(config, workload, refs);
        }
    }
}

TEST(SimulateMany, EmptySpecListAndEmptyStream)
{
    auto stream = pageStream({1, 2, 3});
    EXPECT_TRUE(simulateMany(SimConfig{}, {}, *stream).empty());
    VectorStream empty(std::vector<MemRef>{});
    std::vector<SimResult> none =
        simulateMany(SimConfig{}, {spec("dp")}, empty);
    ASSERT_EQ(none.size(), 1u);
    EXPECT_EQ(none[0], SimResult{});
}

// -------------------------------- page runs vs the per-reference oracle

/** @p texts parsed as mechanisms ("echo" registered first). */
std::vector<MechanismSpec>
parseSpecs(std::initializer_list<const char *> texts)
{
    differentialSpecs(); // registers "echo"
    std::vector<MechanismSpec> specs;
    for (const char *text : texts)
        specs.push_back(MechanismSpec::parse(text));
    return specs;
}

/**
 * Feeding @p workload to a FunctionalSimulator as page runs (what
 * simulate() does) must leave the counters and the snapshot bytes of
 * the per-reference oracle.
 */
void
expectFeedMatchesOracle(const SimConfig &config,
                        const WorkloadSpec &workload, std::uint64_t refs,
                        const MechanismSpec &spec)
{
    SCOPED_TRACE(workload.label() + " under " + spec.label() + ", " +
                 describe(config));
    auto oracle_stream = workload.build(refs);
    OracleRun oracle = oracleRun(config, spec, *oracle_stream);

    FunctionalSimulator sim(config, spec);
    auto stream = workload.build(refs);
    EXPECT_EQ(sim.feed(*stream, UINT64_MAX), oracle.result.refs);
    EXPECT_EQ(sim.result(), oracle.result);
    if (sim.checkpointable()) {
        EXPECT_TRUE(sim.snapshot().bytes ==
                    oracle.stateAtCut.back().bytes)
            << "snapshot bytes differ from the per-reference oracle";
    }
}

/**
 * Every app under every geometry, with no mechanism, a PC-indexed
 * one (ASP sees each run's first PC), the Markov scheme at its
 * widest, recency (stack links in the page table) and a composite.
 */
TEST(SimulateRuns, FeedMatchesPerReferenceOracleOnEveryApp)
{
    const std::vector<MechanismSpec> specs = parseSpecs(
        {"none", "ASP,256,D", "MP,256,F", "rp",
         "hybrid(dp+rp+sp(adaptive))"});
    std::vector<SimConfig> configs = differentialConfigs();
    configs.insert(configs.begin(), SimConfig{});
    for (const SimConfig &config : configs) {
        std::uint64_t refs =
            config.contextSwitchInterval == 1 ? 1500 : 5000;
        for (const AppModel &app : appRegistry())
            for (const MechanismSpec &spec : specs)
                expectFeedMatchesOracle(
                    config, WorkloadSpec::app(app.name), refs, spec);
    }
}

/** simulate() itself, on the streams served by the base nextRuns(). */
TEST(SimulateRuns, SimulateMatchesPerReferenceOracleOnTracesAndMixes)
{
    const std::vector<MechanismSpec> specs =
        parseSpecs({"none", "ASP,256,D", "DP,256,D", "rp", "echo"});
    std::vector<WorkloadSpec> workloads{
        WorkloadSpec::parse(std::string("trace:") + TLBPF_TEST_DATA_DIR +
                            "/sample.tpf"),
        WorkloadSpec::parse("mix:mcf+gcc@5k"),
        WorkloadSpec::parse("mix:galgel+art@333")};
    for (const SimConfig &config : differentialConfigs())
        for (const WorkloadSpec &workload : workloads) {
            for (const MechanismSpec &spec : specs) {
                expectFeedMatchesOracle(config, workload, 10000, spec);
                auto oracle_stream = workload.build(10000);
                auto stream = workload.build(10000);
                EXPECT_EQ(simulate(config, spec, *stream),
                          oracleSimulate(config, spec, *oracle_stream))
                    << workload.label() << " under " << spec.label()
                    << ", " << describe(config);
            }
        }
}

/**
 * An 8-window simulateWindowFrom() chain at an odd window size must
 * reproduce, window by window, the oracle's counter deltas and its
 * snapshot bytes at every window boundary; simulateWindow()'s replay
 * warm-up must give the last window's delta too.
 */
TEST(SimulateRuns, ShardChainsMatchPerReferenceOracle)
{
    constexpr std::uint64_t kWindow = 20001;
    constexpr int kShards = 8;
    constexpr std::uint64_t kRefs = kWindow * kShards;
    std::vector<std::uint64_t> cuts;
    for (int k = 1; k < kShards; ++k)
        cuts.push_back(kWindow * static_cast<std::uint64_t>(k));

    std::vector<SimConfig> configs;
    for (const SimConfig &config : differentialConfigs())
        if (config.contextSwitchInterval != 1)
            configs.push_back(config);
    std::vector<WorkloadSpec> workloads{
        WorkloadSpec::app("galgel"), WorkloadSpec::app("mcf"),
        WorkloadSpec::parse("mix:mcf+gcc@5k")};
    const std::vector<MechanismSpec> specs =
        parseSpecs({"ASP,256,D", "rp"});

    for (const SimConfig &config : configs) {
        for (const WorkloadSpec &workload : workloads) {
            for (const MechanismSpec &spec : specs) {
                SCOPED_TRACE(workload.label() + " under " +
                             spec.label() + ", " + describe(config));
                auto oracle_stream = workload.build(kRefs);
                OracleRun oracle =
                    oracleRun(config, spec, *oracle_stream, cuts);
                ASSERT_EQ(oracle.atCut.size(), kShards);

                auto stream = workload.build(kRefs);
                SimState state;
                SimResult start;
                for (int k = 0; k < kShards; ++k) {
                    SCOPED_TRACE(testing::Message() << "window " << k);
                    SimState end_state;
                    SimResult delta = simulateWindowFrom(
                        config, spec, *stream, k ? &state : nullptr,
                        kWindow, &end_state);
                    // Totals before the window plus its delta are
                    // the oracle's totals at the window's end.
                    SimResult total = start;
                    addCounters(total, delta);
                    EXPECT_EQ(total, oracle.atCut[k]);
                    EXPECT_TRUE(end_state.bytes ==
                                oracle.stateAtCut[k].bytes)
                        << "snapshot bytes differ at the window end";
                    if (k == kShards - 1) {
                        auto replay_stream = workload.build(kRefs);
                        EXPECT_EQ(simulateWindow(config, spec,
                                                 *replay_stream,
                                                 kRefs - kWindow,
                                                 kWindow),
                                  delta);
                    }
                    start = oracle.atCut[k];
                    state = std::move(end_state);
                }
            }
        }
    }
}

} // namespace
} // namespace tlbpf
