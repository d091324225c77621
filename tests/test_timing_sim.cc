/**
 * @file
 * Tests for the timing simulator's cycle accounting: the constant miss
 * penalty, in-flight prefetch stalls, channel contention, and RP's
 * benefit-of-the-doubt rule.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/timing_sim.hh"
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

TEST(TimingSim, FunctionalCountersMatchFunctionalSimWithoutPrefetch)
{
    auto stream1 = buildApp("gcc", 100000);
    auto stream2 = buildApp("gcc", 100000);
    SimResult functional =
        simulate(SimConfig{}, spec("none"), *stream1);
    TimingResult timed = simulateTimed(SimConfig{}, TimingConfig{},
                                       spec("none"), *stream2);
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

TEST(TimingSim, BatchedRunMatchesPerReferenceLoop)
{
    // simulateTimed reads the stream in blocks; stepping the same
    // references through process() one at a time must agree exactly.
    const std::string &app = table3Apps().front();
    constexpr std::uint64_t kRefs = 150000;
    for (const char *mech : {"RP", "DP,256,D"}) {
        auto batched_stream = buildApp(app, kRefs);
        TimingResult batched = simulateTimed(
            SimConfig{}, TimingConfig{}, spec(mech), *batched_stream);

        auto stream = buildApp(app, kRefs);
        TimingSimulator stepped(SimConfig{}, TimingConfig{}, spec(mech));
        MemRef ref;
        while (stream->next(ref))
            stepped.process(ref);
        EXPECT_TRUE(batched == stepped.result()) << app << " " << mech;
        EXPECT_EQ(batched.functional.refs, kRefs) << mech;
    }
}

} // namespace
} // namespace tlbpf
