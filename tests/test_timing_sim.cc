/**
 * @file
 * Tests for the timing simulator's cycle accounting: the constant miss
 * penalty, in-flight prefetch stalls, channel contention, and RP's
 * benefit-of-the-doubt rule; and differential checks of whole timed
 * results against the per-reference oracle (timing_oracle.hh) and of
 * their functional counters against simulate().
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/timing_sim.hh"
#include "timing_oracle.hh"
#include "trace/ref_stream.hh"
#include "workload/app_registry.hh"

namespace tlbpf
{
namespace
{

std::vector<MemRef>
pagedRefs(std::initializer_list<Vpn> pages, std::uint64_t instr_gap)
{
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (Vpn p : pages) {
        refs.push_back(MemRef{p * kDefaultPageBytes, 0x4000, false,
                              icount});
        icount += instr_gap;
    }
    return refs;
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

TEST(TimingSim, NoMissesMeansNoStalls)
{
    VectorStream stream(pagedRefs({1, 1, 1, 1}, 10));
    TimingResult r =
        simulateTimed(tinyConfig(), TimingConfig{}, spec("none"),
                      stream);
    EXPECT_EQ(r.stallCycles, 100u); // only the single cold miss
    EXPECT_EQ(r.computeCycles, 30u);
    EXPECT_EQ(r.cycles, 130u);
}

TEST(TimingSim, EachDemandMissCostsThePenalty)
{
    VectorStream stream(pagedRefs({1, 2, 3}, 1000));
    TimingResult r =
        simulateTimed(tinyConfig(), TimingConfig{}, spec("none"),
                      stream);
    EXPECT_EQ(r.stallCycles, 300u);
}

TEST(TimingSim, BaseCpiScalesComputeCycles)
{
    TimingConfig timing;
    timing.baseCpi = 2.0;
    VectorStream stream(pagedRefs({1, 1}, 50));
    TimingResult r = simulateTimed(tinyConfig(), timing,
                                   spec("none"), stream);
    EXPECT_EQ(r.computeCycles, 100u);
}

TEST(TimingSim, CompletedPrefetchEliminatesStall)
{
    // Page 2 prefetched at the miss on page 1; the next reference is
    // far enough in the future that the prefetch has landed.
    VectorStream stream(pagedRefs({1, 2}, 1000));
    TimingResult r = simulateTimed(tinyConfig(), TimingConfig{},
                                   spec("sp"), stream);
    EXPECT_EQ(r.functional.pbHits, 1u);
    EXPECT_EQ(r.inFlightHits, 0u);
    EXPECT_EQ(r.stallCycles, 100u); // only the cold miss on page 1
}

TEST(TimingSim, InFlightPrefetchStallsPartially)
{
    // With a 300-cycle memory op, the prefetch of page 2 (issued at
    // the miss on page 1) is still in flight when page 2 is
    // referenced: the CPU stalls only for the remainder.
    TimingConfig timing;
    timing.memOpCost = 300;
    VectorStream stream(pagedRefs({1, 2}, 3));
    TimingResult r =
        simulateTimed(tinyConfig(), timing, spec("sp"), stream);
    EXPECT_EQ(r.functional.pbHits, 1u);
    EXPECT_EQ(r.inFlightHits, 1u);
    // Cold miss (100) + remaining in-flight time (300 - 103 = 197).
    EXPECT_EQ(r.stallCycles, 297u);
}

TEST(TimingSim, DemandFetchDelayedByChannelBacklog)
{
    // Miss on 1 issues a 500-cycle prefetch; the unrelated miss on 10
    // (at now = 101) must wait for the channel to clear (t = 500)
    // before its own 100-cycle walk starts.
    TimingConfig timing;
    timing.memOpCost = 500;
    VectorStream stream(pagedRefs({1, 10}, 1));
    TimingResult r =
        simulateTimed(tinyConfig(), timing, spec("sp"), stream);
    // 100 (cold) + (500 - 101 + 100) for the delayed demand fetch.
    EXPECT_EQ(r.stallCycles, 100u + 499u);
}

TEST(TimingSim, RpSkipsPrefetchesWhenChannelBusy)
{
    // Back-to-back history misses keep the channel busy with RP's
    // pointer updates, so some neighbour fetches are skipped.
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (int pass = 0; pass < 6; ++pass) {
        for (Vpn p = 0; p < 12; ++p) {
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false,
                                  icount});
            icount += 2;
        }
    }
    VectorStream stream(std::move(refs));
    TimingResult r = simulateTimed(tinyConfig(), TimingConfig{},
                                   spec("rp"), stream);
    EXPECT_GT(r.prefetchesSkippedBusy, 0u);
}

TEST(TimingSim, DpNeverSkips)
{
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (int pass = 0; pass < 6; ++pass) {
        for (Vpn p = 0; p < 12; ++p) {
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false,
                                  icount});
            icount += 2;
        }
    }
    VectorStream stream(std::move(refs));
    TimingResult r = simulateTimed(tinyConfig(), TimingConfig{},
                                   spec("dp(rows=64)"), stream);
    EXPECT_EQ(r.prefetchesSkippedBusy, 0u);
}

TEST(TimingSim, RpGeneratesMoreMemoryTrafficThanDp)
{
    // Paper Section 3.2: RP's traffic is 2-3x DP's.
    TimingResult rp = runTimed(WorkloadSpec::parse("ammp"), spec("rp"), 200000);
    TimingResult dp = runTimed(WorkloadSpec::parse("ammp"),
                               spec("dp(rows=64)"), 200000);
    EXPECT_GT(rp.memoryOps, dp.memoryOps);
    EXPECT_GE(static_cast<double>(rp.memoryOps),
              1.5 * static_cast<double>(dp.memoryOps));
}

TEST(TimingSim, MemOpCostScalesChannelPressure)
{
    TimingConfig cheap;
    cheap.memOpCost = 1;
    TimingConfig expensive;
    expensive.memOpCost = 200;
    std::vector<MemRef> refs;
    std::uint64_t icount = 0;
    for (int pass = 0; pass < 5; ++pass)
        for (Vpn p = 0; p < 12; ++p) {
            refs.push_back(MemRef{p * kDefaultPageBytes, 0, false,
                                  icount});
            icount += 3;
        }
    VectorStream s1(refs);
    VectorStream s2(refs);
    TimingResult fast =
        simulateTimed(tinyConfig(), cheap, spec("rp"), s1);
    TimingResult slow =
        simulateTimed(tinyConfig(), expensive, spec("rp"), s2);
    EXPECT_LT(fast.cycles, slow.cycles);
}

/**
 * The timed cell runs on the functional simulator's front-end and
 * back-end, so for every mechanism that never drops prefetches when
 * the channel is busy its functional counters are simulate()'s,
 * whole, under context switches and hit training as well.
 */
TEST(TimingSim, FunctionalCountersMatchFunctionalSim)
{
    std::vector<SimConfig> configs(3);
    configs[1].contextSwitchInterval = 30001;
    configs[2].trainOnAllRefs = true;
    constexpr std::uint64_t kRefs = 100000;
    for (const SimConfig &config : configs) {
        for (const std::string &app : table3Apps()) {
            for (const char *mech : {"none", "MP,256,D", "DP,256,D",
                                     "ASP,256,D", "SP", "hybrid(dp+sp)"}) {
                auto s1 = buildApp(app, kRefs);
                auto s2 = buildApp(app, kRefs);
                SimResult functional = simulate(config, spec(mech), *s1);
                TimingResult timed = simulateTimed(
                    config, TimingConfig{}, spec(mech), *s2);
                EXPECT_EQ(timed.functional, functional)
                    << app << " under " << mech << ", switch interval "
                    << config.contextSwitchInterval << ", all refs "
                    << config.trainOnAllRefs;
            }
        }
    }
}

/**
 * RP drops prefetches when the channel is busy, so its prefetch
 * counters differ from simulate()'s; its references, misses and
 * context switches do not.
 */
TEST(TimingSim, RpSeesTheFunctionalSwitches)
{
    SimConfig config;
    config.contextSwitchInterval = 30001;
    auto s1 = buildApp("ammp", 100000);
    auto s2 = buildApp("ammp", 100000);
    SimResult functional = simulate(config, spec("RP"), *s1);
    TimingResult timed =
        simulateTimed(config, TimingConfig{}, spec("RP"), *s2);
    EXPECT_EQ(functional.contextSwitches, 3u);
    EXPECT_EQ(timed.functional.contextSwitches,
              functional.contextSwitches);
    EXPECT_EQ(timed.functional.refs, functional.refs);
    EXPECT_EQ(timed.functional.misses, functional.misses);
}

TEST(TimingSim, PrefetchingSpeedsUpStridedApp)
{
    // galgel: strided re-touch; DP should clearly beat no-prefetching.
    TimingResult base = runTimed(WorkloadSpec::parse("galgel"),
                                 spec("none"), 150000);
    TimingResult dp = runTimed(WorkloadSpec::parse("galgel"),
                               spec("dp(rows=64)"), 150000);
    EXPECT_LT(dp.cycles, base.cycles);
}

/**
 * Whole TimingResults against the stand-alone per-reference oracle,
 * within its scope (no context switches, no hit training): every
 * Table 3 app under every mechanism family, at the default geometry
 * and at the differential geometries that fit that scope.
 */
void
expectTimedMatchesOracle(const SimConfig &config, const TimingConfig &timing,
                         const std::string &app, std::uint64_t refs,
                         const char *mech)
{
    auto s1 = buildApp(app, refs);
    auto s2 = buildApp(app, refs);
    TimingResult timed = simulateTimed(config, timing, spec(mech), *s1);
    TimingResult oracle =
        test::oracleTimed(config, timing, spec(mech), *s2);
    EXPECT_TRUE(timed == oracle)
        << app << " under " << mech << ", tlb " << config.tlb.entries
        << "/" << config.tlb.assoc << " pb " << config.pbEntries
        << " page " << config.pageBytes << ": cycles " << timed.cycles
        << " vs " << oracle.cycles << ", stalls " << timed.stallCycles
        << " vs " << oracle.stallCycles << ", memory ops "
        << timed.memoryOps << " vs " << oracle.memoryOps << ", skipped "
        << timed.prefetchesSkippedBusy << " vs "
        << oracle.prefetchesSkippedBusy;
}

const char *const kOracleMechs[] = {"none", "RP", "DP,256,D", "MP,256,F",
                                    "ASP,32,F", "SP",
                                    "hybrid(dp+rp+sp(adaptive))"};

TEST(TimingSim, MatchesPerReferenceOracleOnTable3Apps)
{
    for (const std::string &app : table3Apps())
        for (const char *mech : kOracleMechs)
            expectTimedMatchesOracle(SimConfig{}, TimingConfig{}, app,
                                     150000, mech);
}

TEST(TimingSim, MatchesPerReferenceOracleAcrossGeometries)
{
    std::vector<SimConfig> configs;
    auto add = [&](auto &&edit) {
        SimConfig config;
        edit(config);
        configs.push_back(config);
    };
    add([](SimConfig &c) { c.tlb = TlbConfig{64, 4}; });
    add([](SimConfig &c) { c.tlb = TlbConfig{256, 2}; });
    add([](SimConfig &c) { c.pbEntries = 1; });
    add([](SimConfig &c) { c.pageBytes = 8192; });
    add([](SimConfig &c) { c.pageBytes = 12288; }); // not a power of 2
    TimingConfig slow_channel;
    slow_channel.memOpCost = 300;
    for (const SimConfig &config : configs)
        for (const char *app : {"mcf", "ammp"})
            for (const char *mech : kOracleMechs)
                expectTimedMatchesOracle(config, TimingConfig{}, app,
                                         40000, mech);
    // A backed-up channel: demand fetches wait and buffer hits stall.
    for (const char *mech : kOracleMechs)
        expectTimedMatchesOracle(SimConfig{}, slow_channel, "vpr", 40000,
                                 mech);
}

} // namespace
} // namespace tlbpf
