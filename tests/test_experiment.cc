/**
 * @file
 * Tests for the experiment drivers: the canned figure/table
 * configuration lists, the sweep helpers, and end-to-end behaviour of
 * the prefetcher variants (adaptive SP, wide-reach RP) inside the
 * full simulator.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "trace/ref_stream.hh"

namespace tlbpf
{
namespace
{

TEST(Figure7Specs, MatchesPaperLegend)
{
    auto specs = figure7Specs();
    // RP + 8 MP configs + 6 DP + 6 ASP = 21 bars per application.
    ASSERT_EQ(specs.size(), 21u);
    EXPECT_EQ(specs[0].label(), "RP");
    EXPECT_EQ(specs[1].label(), "MP,1024,D");
    EXPECT_EQ(specs[8].label(), "MP,256,F");
    EXPECT_EQ(specs[9].label(), "DP,1024,D");
    EXPECT_EQ(specs[14].label(), "DP,32,D");
    EXPECT_EQ(specs[15].label(), "ASP,1024,D");
    EXPECT_EQ(specs[20].label(), "ASP,32,D");
    for (const MechanismSpec &spec : specs) {
        if (spec.name == "mp" || spec.name == "dp") {
            EXPECT_EQ(spec.uintParam("slots"), 2u) << spec.label();
        }
    }
}

TEST(Table2Specs, FourSchemesAt256)
{
    auto specs = table2Specs();
    ASSERT_EQ(specs.size(), 4u);
    EXPECT_EQ(specs[0].name, "dp");
    EXPECT_EQ(specs[1].name, "rp");
    EXPECT_EQ(specs[2].name, "asp");
    EXPECT_EQ(specs[3].name, "mp");
    for (const MechanismSpec &spec : specs) {
        if (spec.name != "rp") {
            EXPECT_EQ(spec.uintParam("rows"), 256u);
        }
    }
}

TEST(AccuracySweep, CellsMatchIndividualRuns)
{
    std::vector<MechanismSpec> specs = table2Specs();
    auto cells = accuracySweep(WorkloadSpec::parse("galgel"), specs, 100000);
    ASSERT_EQ(cells.size(), 4u);
    SimResult direct = runFunctional(WorkloadSpec::parse("galgel"),
                                     specs[0], 100000);
    EXPECT_DOUBLE_EQ(cells[0].accuracy, direct.accuracy());
    EXPECT_DOUBLE_EQ(cells[0].missRate, direct.missRate());
    EXPECT_EQ(cells[0].label, "DP,256,D");
}

TEST(RunTimed, NormalisesSanely)
{
    TimingResult r = runTimed(WorkloadSpec::parse("eon"),
                              MechanismSpec::none(), 50000);
    // eon barely misses: cycles ~ compute cycles.
    EXPECT_LT(r.stallCycles, r.computeCycles / 10);
    EXPECT_EQ(r.cycles, r.computeCycles + r.stallCycles);
}

TEST(Variants, AdaptiveSpBeatsFixedDegreeOneOnSequentialBursts)
{
    // On a pure sequential stream both saturate; on a faster page
    // walk the adaptive version's higher degree covers more lookahead
    // within the buffer.
    std::vector<MemRef> refs;
    for (Vpn p = 0; p < 30000; ++p)
        refs.push_back(MemRef{p * kDefaultPageBytes, 0x4000, false, p});

    MechanismSpec fixed = MechanismSpec::parse("sp(degree=1)");
    MechanismSpec adaptive = MechanismSpec::parse("sp(adaptive)");

    VectorStream s1(refs);
    VectorStream s2(refs);
    SimResult f = simulate(SimConfig{}, fixed, s1);
    SimResult a = simulate(SimConfig{}, adaptive, s2);
    EXPECT_GT(f.accuracy(), 0.99); // both easily cover stride-1
    EXPECT_GT(a.accuracy(), 0.99);
    // The adaptive controller issued more prefetches (degree > 1).
    EXPECT_GT(a.prefetchesIssued + a.prefetchesSuppressed,
              f.prefetchesIssued + f.prefetchesSuppressed);
}

TEST(Variants, WideReachRpLiftsAccuracyOnHistoryApp)
{
    // The 3-entry-style RP variant prefetches deeper into the stack
    // neighbourhood; on a history app it should not do worse, and it
    // issues more prefetch traffic.
    MechanismSpec rp2 = MechanismSpec::parse("rp(reach=1)");
    MechanismSpec rp4 = MechanismSpec::parse("rp(reach=2)");
    SimResult narrow = runFunctional(WorkloadSpec::parse("gcc"), rp2, 300000);
    SimResult wide = runFunctional(WorkloadSpec::parse("gcc"), rp4, 300000);
    EXPECT_GE(wide.accuracy(), narrow.accuracy() - 0.02);
    EXPECT_GT(wide.prefetchesIssued, narrow.prefetchesIssued);
}

TEST(Variants, FactoryLabelsForVariants)
{
    MechanismSpec spec = MechanismSpec::parse("ASQ");
    EXPECT_EQ(spec.label(), "ASQ");
    PageTable pt;
    auto pf = spec.build(pt);
    EXPECT_EQ(pf->name(), "ASQ");

    spec = MechanismSpec::parse("rp(reach=2)");
    EXPECT_EQ(spec.label(), "RP,4");
    EXPECT_EQ(MechanismSpec::parse("RP,4"), spec);
    auto rp = spec.build(pt);
    EXPECT_EQ(rp->label(), "RP,4");
}

TEST(DefaultBenchRefs, IsAMillion)
{
    EXPECT_EQ(kDefaultBenchRefs, 1000000u);
}

} // namespace
} // namespace tlbpf
