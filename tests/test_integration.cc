/**
 * @file
 * Integration tests: end-to-end runs of application models under all
 * mechanisms, asserting the qualitative orderings the paper reports
 * (which mechanism class wins on which behaviour class).
 *
 * These use shortened streams (200-400k references), so the bands are
 * deliberately generous; the bench binaries reproduce the full
 * figures.
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"

namespace tlbpf
{
namespace
{

constexpr std::uint64_t kRefs = 400000;

MechanismSpec
spec(const std::string &text)
{
    return MechanismSpec::parse(text);
}

double
accuracy(const std::string &app, const MechanismSpec &s,
         std::uint64_t refs = kRefs)
{
    return runFunctional(WorkloadSpec::parse(app), s, refs).accuracy();
}

TEST(Integration, ColdStridedFavoursAspAndDp)
{
    // gzip: first-touch strided references (paper Section 3.2).
    double asp = accuracy("gzip", spec("asp"));
    double dp = accuracy("gzip", spec("dp"));
    double rp = accuracy("gzip", spec("rp"));
    double mp = accuracy("gzip", spec("mp"));
    EXPECT_GT(asp, 0.9);
    EXPECT_GT(dp, 0.9);
    EXPECT_LT(rp, 0.1);
    EXPECT_LT(mp, 0.1);
}

TEST(Integration, HistoryAppsFavourRp)
{
    // gcc: "RP giving the best, or close to the best performance".
    double rp = accuracy("gcc", spec("rp"));
    double dp = accuracy("gcc", spec("dp"));
    double asp = accuracy("gcc", spec("asp"));
    EXPECT_GT(rp, 0.8);
    EXPECT_GT(rp, dp);
    EXPECT_LT(asp, 0.2);
}

TEST(Integration, AlternationFavoursMpOverRp)
{
    // parser/vortex: MP's two slots capture alternating successors.
    for (const char *app : {"parser", "vortex"}) {
        double mp = accuracy(app, spec("mp"));
        double rp = accuracy(app, spec("rp"));
        double asp = accuracy(app, spec("asp"));
        EXPECT_GT(mp, rp) << app;
        EXPECT_GT(mp, 0.8) << app;
        EXPECT_LT(asp, 0.1) << app;
    }
}

TEST(Integration, DistancePatternsAreDpOnly)
{
    // swim/mgrid/applu: DP much better than everything else.
    for (const char *app : {"swim", "mgrid", "applu"}) {
        double dp = accuracy(app, spec("dp"));
        double rp = accuracy(app, spec("rp"));
        double mp = accuracy(app, spec("mp"));
        double asp = accuracy(app, spec("asp"));
        EXPECT_GT(dp, 0.8) << app;
        EXPECT_GT(dp, rp + 0.5) << app;
        EXPECT_GT(dp, mp + 0.5) << app;
        EXPECT_GT(dp, asp + 0.5) << app;
    }
}

TEST(Integration, GsmJpegOnlyDpPredicts)
{
    // "DP is the only mechanism which makes any noticeable
    // predictions (even if the accuracy does not exceed 20%)".
    for (const char *app : {"gsm-enc", "jpeg-dec"}) {
        double dp = accuracy(app, spec("dp"));
        double rp = accuracy(app, spec("rp"));
        double asp = accuracy(app, spec("asp"));
        double mp = accuracy(app, spec("mp"));
        EXPECT_GT(dp, 0.2) << app;
        EXPECT_LT(rp, 0.1) << app;
        EXPECT_LT(asp, 0.1) << app;
        EXPECT_LT(mp, 0.1) << app;
    }
}

TEST(Integration, NobodyPredictsTheIrregularApps)
{
    for (const char *app : {"fma3d", "eon", "pgp-dec"}) {
        for (const char *mech : {"dp", "rp", "asp", "mp"}) {
            EXPECT_LT(accuracy(app, spec(mech)), 0.25)
                << app << "/" << mech;
        }
    }
}

TEST(Integration, StreamingAppsDefeatSmallMarkovTables)
{
    // adpcm: footprint far larger than the MP table -> MP near zero
    // while RP/ASP/DP all do well (paper's headline MP failure).
    double mp = accuracy("adpcm-enc", spec("mp"));
    double rp = accuracy("adpcm-enc", spec("rp"));
    double asp = accuracy("adpcm-enc", spec("asp"));
    double dp = accuracy("adpcm-enc", spec("dp"));
    EXPECT_LT(mp, 0.05);
    EXPECT_GT(rp, 0.8);
    EXPECT_GT(asp, 0.7);
    EXPECT_GT(dp, 0.7);
}

TEST(Integration, AllSchemesGoodOnRegularReTouch)
{
    // mesa/gap/facerec: "nearly all mechanisms give quite good
    // prediction accuracies" (MP included: footprint fits the table).
    for (const char *app : {"gap", "facerec"}) {
        EXPECT_GT(accuracy(app, spec("dp")), 0.8) << app;
        EXPECT_GT(accuracy(app, spec("rp")), 0.8) << app;
        EXPECT_GT(accuracy(app, spec("asp")), 0.8) << app;
        EXPECT_GT(accuracy(app, spec("mp")), 0.8) << app;
    }
}

TEST(Integration, GalgelMpNeedsLargeTable)
{
    // galgel: MP poor at small r, because the data set needs more
    // rows than the table has (paper Section 3.2).
    double mp_small = accuracy("galgel", spec("mp"));
    double mp_large = accuracy("galgel", spec("mp(rows=1024)"));
    EXPECT_LT(mp_small, 0.1);
    EXPECT_GT(mp_large, mp_small + 0.3);
}

TEST(Integration, Table3AppsRpAccuracyAboveDp)
{
    // The five applications of Table 3 are exactly those where RP's
    // prediction accuracy is (somewhat) above DP's.  RP needs enough
    // passes over each footprint to amortise its cold first pass, so
    // this test runs longer streams than the others.
    for (const std::string &app : table3Apps()) {
        double rp = accuracy(app, spec("rp"), 1000000);
        double dp = accuracy(app, spec("dp"), 1000000);
        EXPECT_GT(rp, dp) << app;
        EXPECT_GT(dp, 0.4) << app; // but DP is not far behind
    }
}

TEST(Integration, Table3DpWinsCyclesDespiteLowerAccuracy)
{
    // The paper's headline: despite RP's higher accuracy, DP comes
    // out ahead in execution cycles because RP's stack maintenance
    // costs up to 6 memory operations per miss.
    MechanismSpec none = spec("none");
    for (const std::string &app : {std::string("ammp"),
                                   std::string("mcf")}) {
        TimingResult base = runTimed(WorkloadSpec::parse(app), none, kRefs);
        TimingResult rp = runTimed(WorkloadSpec::parse(app), spec("rp"), kRefs);
        TimingResult dp = runTimed(WorkloadSpec::parse(app), spec("dp"), kRefs);
        double rp_norm = static_cast<double>(rp.cycles) /
                         static_cast<double>(base.cycles);
        double dp_norm = static_cast<double>(dp.cycles) /
                         static_cast<double>(base.cycles);
        EXPECT_LT(dp_norm, rp_norm) << app;
        EXPECT_LT(dp_norm, 1.0) << app;
    }
}

TEST(Integration, McfRpSlowerThanNoPrefetching)
{
    // Paper Table 3: mcf RP = 1.09 — prefetching makes it *slower*.
    TimingResult base = runTimed(WorkloadSpec::parse("mcf"),
                                 spec("none"), kRefs);
    TimingResult rp = runTimed(WorkloadSpec::parse("mcf"), spec("rp"), kRefs);
    EXPECT_GT(rp.cycles, base.cycles);
}

TEST(Integration, DpSmallTableCloseToLarge)
{
    // Figure 9: "even a r=32 predictor table for DP gives very good
    // predictions".
    for (const char *app : {"galgel", "adpcm-enc", "swim"}) {
        double dp32 = accuracy(app, spec("dp(rows=32)"));
        double dp1024 = accuracy(app, spec("dp(rows=1024)"));
        EXPECT_GT(dp32, dp1024 - 0.15) << app;
    }
}

TEST(Integration, AverageAccuracyOrderingMatchesTable2)
{
    // Table 2 (unweighted averages over the suite): DP first, MP
    // last, RP and ASP in between.  A 12-app cross-section keeps the
    // runtime reasonable.
    const char *apps[] = {"gzip", "gcc", "mcf", "parser", "swim",
                          "galgel", "vortex", "ammp", "adpcm-enc",
                          "gsm-enc", "mpegply", "anagram"};
    double sum[4] = {0, 0, 0, 0};
    const char *const schemes[] = {"dp", "rp", "asp", "mp"};
    for (const char *app : apps) {
        for (int i = 0; i < 4; ++i)
            sum[i] += accuracy(app, spec(schemes[i]), 200000);
    }
    double dp = sum[0], rp = sum[1], asp = sum[2], mp = sum[3];
    EXPECT_GT(dp, rp);
    EXPECT_GT(dp, asp);
    EXPECT_GT(rp, mp);
    EXPECT_GT(asp, mp);
}

} // namespace
} // namespace tlbpf
