/**
 * @file
 * Analysis tool: the miss-distance distributions that motivate
 * distance prefetching.
 *
 * DP's space argument (paper Section 2.5) rests on the observation
 * that TLB miss streams use few *distinct distances* even when they
 * touch many distinct pages.  For every application this tool reports
 * the number of distinct pages vs distinct distances in the miss
 * stream and how much of the stream the top-8 distances cover — the
 * higher the coverage, the smaller the DP table can be.
 *
 * With --mech, the analysis runs on the *residual* miss stream: TLB
 * misses that the named mechanism's prefetch buffer did not cover.
 * This answers "what pattern is left for a second-level predictor?" —
 * e.g. --mech 'DP,256,D' shows the distances DP fails to absorb.
 * Default is no prefetching, i.e. the raw miss stream as before.
 *
 * Usage: distance_stats [--refs N] [--apps a,b,c] [--threads N]
 *                       [--csv out.csv] [--json out.json]
 *                       [--workload spec,...] [--mech spec]
 *                       [--list-mechanisms]
 */

#include <cstdio>

#include "bench_common.hh"
#include "stats/histogram.hh"
#include "tlb/tlb.hh"

int
main(int argc, char **argv)
{
    using namespace tlbpf;
    using namespace tlbpf::bench;

    BenchOptions options = parseBenchOptions(argc, argv);

    std::printf("=== Miss-distance distribution analysis (refs/app = "
                "%llu) ===\n",
                static_cast<unsigned long long>(options.refs));

    std::vector<std::string> names;
    for (const AppModel &app : appRegistry())
        names.push_back(app.name);
    std::vector<WorkloadSpec> workloads =
        selectedWorkloads(options, names);
    requireUnshardedWorkloads(options, workloads, "distance_stats");
    if (options.mechs.size() > 1)
        tlbpf_fatal("distance_stats analyses one residual stream; "
                    "pass a single --mech spec, got ",
                    options.mechs.size());
    MechanismSpec mech = options.mechs.empty() ? MechanismSpec::none()
                                               : options.mechs.front();

    // One pool cell per workload; each builds its own stream, TLB
    // and histograms and fills its row slot.  WorkloadSpec::build
    // throws (never exits) from the workers, so a bad workload
    // surfaces as one clean fatal after the pool drains.
    std::vector<std::vector<std::string>> rows(workloads.size());
    ThreadPool pool(options.threads);
    auto analyse = [&](std::size_t i) {
        Tlb tlb({128, 0});
        PrefetchBuffer buffer(16);
        PageTable pt;
        auto prefetcher = mech.build(pt);
        SparseHistogram distances;
        SparseHistogram pages;
        Vpn prev = kNoPage;
        PrefetchDecision decision;

        auto stream = workloads[i].build(options.refs);
        MemRef ref;
        while (stream->next(ref)) {
            Vpn vpn = ref.vpn();
            if (tlb.access(vpn))
                continue;
            Tick ready = 0;
            bool covered = buffer.hitAndPromote(vpn, ready);
            std::optional<Vpn> evicted = tlb.insert(vpn);
            if (!covered) {
                // Residual miss: neither TLB nor buffer held it.
                pages.sample(static_cast<std::int64_t>(vpn));
                if (prev != kNoPage)
                    distances.sample(static_cast<std::int64_t>(vpn) -
                                     static_cast<std::int64_t>(prev));
                prev = vpn;
            }
            if (!prefetcher)
                continue;
            decision.clear();
            prefetcher->onMiss(
                TlbMiss{vpn, ref.pc, covered,
                        evicted.value_or(kNoPage)},
                decision);
            for (Vpn target : decision.targets)
                if (target != vpn && !tlb.contains(target))
                    buffer.insertIfAbsent(target);
        }

        std::string top1 = "-";
        if (distances.total() > 0) {
            auto top = distances.topK(1);
            top1 = std::to_string(top[0].first) + " (" +
                   TablePrinter::num(
                       static_cast<double>(top[0].second) /
                           static_cast<double>(distances.total()),
                       2) +
                   ")";
        }
        rows[i] = {workloads[i].label(),
                   TablePrinter::num(distances.total()),
                   TablePrinter::num(
                       static_cast<std::uint64_t>(pages.distinct())),
                   TablePrinter::num(static_cast<std::uint64_t>(
                       distances.distinct())),
                   TablePrinter::num(distances.coverage(8), 3),
                   top1};
    };
    try {
        pool.parallelFor(workloads.size(), analyse);
    } catch (const std::invalid_argument &e) {
        tlbpf_fatal(e.what());
    }

    std::string caption = "128-entry FA TLB; distances between "
                          "successive missing pages";
    if (mech.name != "none")
        caption += " (residual stream under " + mech.label() + ")";
    TableSink out(caption);
    std::vector<std::string> header = {"workload", "misses",
                                       "distinct pages",
                                       "distinct distances",
                                       "top-8 coverage",
                                       "top-1 distance"};
    out.header(header);
    MultiSink records = recordSinks(options);
    if (!records.empty())
        records.header(header);
    for (const std::vector<std::string> &row : rows) {
        out.row(row);
        if (!records.empty())
            records.row(row);
    }
    out.finish();
    records.finish();
    std::printf("(a Markov table needs ~'distinct pages' rows; DP "
                "needs ~'distinct distances' — the gap is the paper's "
                "space argument)\n");
    return 0;
}
