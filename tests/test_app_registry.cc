/**
 * @file
 * Tests for the 56-application model registry: completeness, suite
 * membership, determinism, and the miss-rate calibration bands the
 * paper reports for the Figure 9 applications.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/experiment.hh"
#include "trace/ref_stream.hh"
#include "workload/app_registry.hh"

namespace tlbpf
{
namespace
{

TEST(Registry, Has56Applications)
{
    EXPECT_EQ(appRegistry().size(), 56u);
}

TEST(Registry, SuiteSizesMatchPaper)
{
    EXPECT_EQ(appsInSuite(kSuiteSpec).size(), 26u);
    EXPECT_EQ(appsInSuite(kSuiteMedia).size(), 20u);
    EXPECT_EQ(appsInSuite(kSuiteEtch).size(), 5u);
    EXPECT_EQ(appsInSuite(kSuitePtr).size(), 5u);
}

TEST(Registry, NamesAreUnique)
{
    std::set<std::string> names;
    for (const AppModel &app : appRegistry())
        names.insert(app.name);
    EXPECT_EQ(names.size(), 56u);
}

TEST(Registry, PaperFigureOrderSpotChecks)
{
    const auto &apps = appRegistry();
    EXPECT_EQ(apps[0].name, "gzip");
    EXPECT_EQ(apps[3].name, "mcf");
    EXPECT_EQ(apps[25].name, "apsi");
    EXPECT_EQ(apps[26].name, "adpcm-enc");
    EXPECT_EQ(apps[46].name, "bcc");
    EXPECT_EQ(apps[55].name, "yacr2");
}

TEST(Registry, FindAppByName)
{
    EXPECT_EQ(findApp("mcf").suite, kSuiteSpec);
    EXPECT_EQ(findApp("adpcm-enc").suite, kSuiteMedia);
    EXPECT_EQ(findApp("winword").suite, kSuiteEtch);
    EXPECT_EQ(findApp("yacr2").suite, kSuitePtr);
}

TEST(Registry, UnknownAppIsFatal)
{
    EXPECT_EXIT(findApp("not-a-benchmark"),
                ::testing::ExitedWithCode(1), "unknown application");
}

TEST(Registry, EveryModelHasNotesAndPacing)
{
    for (const AppModel &app : appRegistry()) {
        EXPECT_FALSE(app.notes.empty()) << app.name;
        EXPECT_GE(app.instrPerRef, 1.0) << app.name;
        EXPECT_TRUE(app.build != nullptr) << app.name;
    }
}

TEST(Registry, HighMissRateListMatchesPaper)
{
    const auto &apps = highMissRateApps();
    EXPECT_EQ(apps.size(), 8u);
    for (const char *name : {"vpr", "mcf", "twolf", "galgel", "ammp",
                             "lucas", "apsi", "adpcm-enc"})
        EXPECT_NE(std::find(apps.begin(), apps.end(), name),
                  apps.end());
}

TEST(Registry, Table3ListMatchesPaper)
{
    const auto &apps = table3Apps();
    EXPECT_EQ(apps.size(), 5u);
    EXPECT_EQ(apps[0], "ammp");
    EXPECT_EQ(apps[1], "mcf");
}

TEST(BuildApp, ProducesExactlyRequestedRefs)
{
    for (const char *name : {"gzip", "mcf", "gsm-enc", "bc"}) {
        auto stream = buildApp(name, 5000);
        EXPECT_EQ(collect(*stream).size(), 5000u) << name;
    }
}

TEST(BuildApp, DeterministicAcrossBuilds)
{
    auto a = collect(*buildApp("swim", 3000));
    auto b = collect(*buildApp("swim", 3000));
    EXPECT_EQ(a, b);
}

TEST(BuildApp, InstructionCountsMonotonic)
{
    auto stream = buildApp("vpr", 2000);
    MemRef r;
    std::uint64_t prev = 0;
    bool first = true;
    while (stream->next(r)) {
        if (!first) {
            EXPECT_GE(r.icount, prev);
        }
        prev = r.icount;
        first = false;
    }
    // vpr paces 3 instructions per reference.
    EXPECT_NEAR(static_cast<double>(prev), 3.0 * 2000, 16.0);
}

TEST(BuildApp, EveryModelBuildsAndRuns)
{
    // Smoke: all 56 models produce references without tripping any
    // internal assertion.
    for (const AppModel &app : appRegistry()) {
        auto stream = buildApp(app, 2000);
        EXPECT_EQ(collect(*stream).size(), 2000u) << app.name;
    }
}

/** Miss-rate calibration bands (paper Section 3.2, 128-entry FA TLB). */
struct MissRateBand
{
    const char *app;
    double lo;
    double hi;
};

class MissRateCalibration : public ::testing::TestWithParam<MissRateBand>
{
};

TEST_P(MissRateCalibration, WithinBand)
{
    const MissRateBand &band = GetParam();
    MechanismSpec none = MechanismSpec::none();
    SimResult r = runFunctional(WorkloadSpec::parse(band.app), none, 400000);
    EXPECT_GE(r.missRate(), band.lo) << band.app;
    EXPECT_LE(r.missRate(), band.hi) << band.app;
}

INSTANTIATE_TEST_SUITE_P(
    Paper, MissRateCalibration,
    ::testing::Values(
        // paper: galgel 0.228 — the highest of all 56
        MissRateBand{"galgel", 0.15, 0.30},
        // paper: adpcm-enc 0.192
        MissRateBand{"adpcm-enc", 0.12, 0.25},
        // paper: mcf 0.090
        MissRateBand{"mcf", 0.06, 0.12},
        // paper: apsi 0.018
        MissRateBand{"apsi", 0.010, 0.030},
        // paper: vpr 0.016
        MissRateBand{"vpr", 0.008, 0.028},
        // paper: lucas 0.016
        MissRateBand{"lucas", 0.008, 0.028},
        // paper: twolf 0.013
        MissRateBand{"twolf", 0.006, 0.024},
        // paper: ammp 0.0113
        MissRateBand{"ammp", 0.005, 0.022},
        // eon: too few misses to matter
        MissRateBand{"eon", 0.0, 0.002},
        // g721: TLB-resident
        MissRateBand{"g721-enc", 0.0, 0.002}),
    [](const ::testing::TestParamInfo<MissRateBand> &info) {
        std::string name = info.param.app;
        for (char &ch : name)
            if (ch == '-')
                ch = '_';
        return name;
    });

} // namespace
} // namespace tlbpf
