/**
 * @file
 * perfbench: the repository benchmark.  Runs one workload (or all
 * three) for --seconds, checks every output against an oracle, and
 * prints metrics as "metric <name> <value> <unit>" lines followed by
 * one JSON result line.  --trace 0 reports the end-to-end metrics;
 * --trace 1 reports the per-layer metrics of the traced run.  See
 * README.md in this directory.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace
{

const char *const kWorkloads[] = {"paper_grid", "cell_skew", "service_mix"};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload paper_grid|cell_skew|"
                 "service_mix|all --seed N --seconds S --trace 0|1\n"
                 "                 [--scale X] [--work-dir DIR]\n",
                 why);
    std::exit(2);
}

Options
parseOptions(int argc, char **argv)
{
    Options options;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        try {
            if (flag == "--workload") {
                options.workload = value;
                have_workload = true;
            } else if (flag == "--seed") {
                options.seed = std::stoull(value);
            } else if (flag == "--seconds") {
                options.seconds = std::stod(value);
            } else if (flag == "--trace") {
                options.trace = std::stoi(value) != 0;
            } else if (flag == "--scale") {
                options.scale = std::stod(value);
            } else if (flag == "--work-dir") {
                options.workDir = value;
            } else {
                usage(("unknown option " + flag).c_str());
            }
        } catch (const std::logic_error &) {
            usage(("bad value for " + flag + ": " + value).c_str());
        }
    }
    if (!have_workload)
        usage("--workload is required");
    if (options.seconds <= 0 || options.scale <= 0)
        usage("--seconds and --scale must be positive");
    return options;
}

std::unique_ptr<Workload>
makeWorkload(const Options &options)
{
    if (options.workload == "paper_grid")
        return makePaperGrid(options);
    if (options.workload == "cell_skew")
        return makeCellSkew(options);
    if (options.workload == "service_mix")
        return makeServiceMix(options);
    usage(("unknown workload " + options.workload).c_str());
}

/** Throughput totals over each distinct request at its best repeat. */
struct BestTotals
{
    double seconds = 0.0;
    double cpuS = 0.0;
    std::uint64_t refs = 0;
    std::uint64_t cells = 0;
};

BestTotals
bestTotals(const std::vector<Sample> &best)
{
    BestTotals t;
    for (const Sample &s : best) {
        if (!s.counted)
            continue;
        t.seconds += s.ms * 1e-3;
        t.cpuS += s.cpuS;
        t.refs += s.refs;
        t.cells += s.cells;
    }
    return t;
}

/** Best-repeat latencies of the distinct requests of one kind. */
std::vector<double>
bestMs(const std::vector<Sample> &best, Sample::Kind kind, bool first_cell)
{
    std::vector<double> ms;
    for (const Sample &s : best)
        if (s.kind == kind)
            ms.push_back(first_cell ? s.firstCellMs : s.ms);
    return ms;
}

/**
 * The end-to-end metrics and attempt counts of one measured window.
 * Every distinct request of the pass counts once, at its best repeat:
 * throughput is the pass's work over the sum of its requests' best
 * times, latencies are percentiles over the distinct requests.
 */
void
endToEnd(Report &report, const Measured &m,
         const std::vector<double> &setup_s)
{
    report.attempted = m.attempted;
    report.failed = m.failed;
    std::vector<Sample> best = bestOfRepeats(m.samples);
    BestTotals t = bestTotals(best);
    unsigned min_reps = ~0u, max_reps = 0;
    for (const Sample &s : best) {
        min_reps = std::min(min_reps, s.repeats);
        max_reps = std::max(max_reps, s.repeats);
    }
    char reps[128];
    std::snprintf(reps, sizeof(reps), "median of %zu, %.4g..%.4g",
                  setup_s.size(),
                  *std::min_element(setup_s.begin(), setup_s.end()),
                  *std::max_element(setup_s.begin(), setup_s.end()));
    report.add("setup_s", median(setup_s), "s", reps);
    // How much time the best-of removed: the counted requests' summed
    // median repeat over their summed best.
    std::map<std::uint64_t, std::vector<double>> by_key;
    for (const Sample &s : m.samples)
        if (s.counted)
            by_key[s.key].push_back(s.ms);
    double median_ms = 0.0;
    for (const auto &[key, ms] : by_key)
        median_ms += median(ms);
    for (const Sample &s : best)
        std::printf("request %llu %s best %.3f ms cpu %.4f s repeats %u\n",
                    static_cast<unsigned long long>(s.key),
                    s.kind == Sample::Kind::Grid    ? "grid"
                    : s.kind == Sample::Kind::Probe ? "probe"
                                                    : "other",
                    s.ms, s.cpuS, s.repeats);
    std::snprintf(reps, sizeof(reps),
                  "%zu distinct requests, best of %u..%u repeats, "
                  "median repeat %.3fx best",
                  best.size(), best.empty() ? 0 : min_reps, max_reps,
                  ratio(median_ms * 1e-3, t.seconds));
    double refs = static_cast<double>(t.refs);
    report.add("sim_mrefs_per_s", ratio(refs, t.seconds) * 1e-6, "Mref/s",
               reps);
    report.add("cpu_ns_per_ref", ratio(t.cpuS * 1e9, refs), "ns");
    report.add("peak_rss_mb", peakRssMb(), "MiB");
    report.add("cells_per_s",
               ratio(static_cast<double>(t.cells), t.seconds), "1/s");
    std::vector<double> grid = bestMs(best, Sample::Kind::Grid, false);
    std::vector<double> probe = bestMs(best, Sample::Kind::Probe, false);
    report.add("grid_p50_ms", median(grid), "ms",
               "n=" + std::to_string(grid.size()));
    report.add("first_cell_p50_ms",
               median(bestMs(best, Sample::Kind::Grid, true)), "ms",
               "n=" + std::to_string(grid.size()));
    report.add("probe_p50_ms", median(probe), "ms",
               "n=" + std::to_string(probe.size()));
    TailStat tail = tailStat(probe);
    char note[96];
    std::snprintf(note, sizeof(note), "p%.1f n=%zu beyond=%zu%s",
                  tail.percentile, tail.samples, tail.beyond,
                  tail.qualified ? "" : " (too few samples: max)");
    report.add("probe_tail_ms", tail.value, "ms", note);
}

/** Set-up repetitions; setup_s is their median. */
constexpr unsigned kSetupReps = 9;

/** Set up kSetupReps times (teardown untimed); the seconds of each. */
std::vector<double>
timedSetup(Workload &workload)
{
    std::vector<double> seconds;
    for (unsigned rep = 0; rep < kSetupReps; ++rep) {
        workload.teardown();
        std::int64_t t0 = nowNs();
        workload.setup();
        seconds.push_back(static_cast<double>(nowNs() - t0) * 1e-9);
    }
    return seconds;
}

Report
runWorkload(const Options &options)
{
    std::printf("=== workload %s seed %llu seconds %g trace %d scale %g\n",
                options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.seconds, options.trace ? 1 : 0, options.scale);
    std::unique_ptr<Workload> workload = makeWorkload(options);
    std::vector<double> setup_s = timedSetup(*workload);
    std::printf("memory: peak %.1f MiB after set-up\n", peakRssMb());
    Report report;

    if (!options.trace) {
        Measured m = workload->measure(options.seconds, nullptr);
        workload->describeInputs();
        std::printf("%s\n", m.host.describe().c_str());
        endToEnd(report, m, setup_s);
        workload->check(report);
        workload->teardown();
        return report;
    }

    // Traced run: half the time untraced, half traced (the difference
    // is the tracing overhead), then the oracle over both windows and
    // the layer ladder, which also re-checks the whole grid.
    Measured plain = workload->measure(options.seconds / 2, nullptr);
    Tracer tracer;
    Measured traced = workload->measure(options.seconds / 2, &tracer);
    workload->describeInputs();
    Report plain_e2e, traced_e2e;
    endToEnd(plain_e2e, plain, setup_s);
    endToEnd(traced_e2e, traced, setup_s);
    plain_e2e.print("untraced.");
    std::printf("untraced %s\n", plain.host.describe().c_str());
    traced_e2e.print("traced.");
    std::printf("traced %s\n", traced.host.describe().c_str());

    report.attempted = plain.attempted + traced.attempted;
    report.failed = plain.failed + traced.failed;
    workload->check(report);
    runLadder(options, *workload, tracer, report);
    workload->teardown();

    BestTotals plain_t = bestTotals(bestOfRepeats(plain.samples));
    BestTotals traced_t = bestTotals(bestOfRepeats(traced.samples));
    double plain_cpu = ratio(plain_t.cpuS, static_cast<double>(plain_t.refs));
    double traced_cpu =
        ratio(traced_t.cpuS, static_cast<double>(traced_t.refs));
    report.add("trace.overhead_share", ratio(traced_cpu - plain_cpu, plain_cpu),
               "share", "traced vs untraced cpu_ns_per_ref");
    report.add("host.steal_share", traced.host.stealShare, "share");
    report.add("host.cpu_s", traced.host.cpuS, "s");
    std::string spans =
        (std::filesystem::path(options.workDir) /
         ("spans-" + options.workload + ".jsonl"))
            .string();
    tracer.writeJsonl(spans);
    std::printf("spans: %zu written to %s\n", tracer.size(), spans.c_str());
    return report;
}

} // namespace

int
main(int argc, char **argv)
{
    Options options = parseOptions(argc, argv);
    try {
        std::filesystem::create_directories(options.workDir);
        if (options.workload != "all") {
            Report report = runWorkload(options);
            report.print();
            report.printVerdict();
            std::printf("%s\n", report.json().c_str());
            return report.correct() ? 0 : 1;
        }
        // Every workload in one process, metrics prefixed by workload.
        Report all;
        bool correct = true;
        for (const char *name : kWorkloads) {
            Options one = options;
            one.workload = name;
            Report report = runWorkload(one);
            report.print(std::string(name) + ".");
            report.printVerdict();
            correct = correct && report.correct();
            all.attempted += report.attempted;
            all.failed += report.failed;
            for (const Metric &m : report.metrics())
                all.add(std::string(name) + "." + m.name, m.value, m.unit,
                        m.note);
        }
        if (!correct)
            all.fail("at least one workload failed its oracle");
        std::printf("%s\n", all.json().c_str());
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
