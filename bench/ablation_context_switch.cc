/**
 * @file
 * Extension bench: multiprogrammed environment (the paper's "ongoing
 * work": "prefetching issues in a multiprogrammed environment
 * (flushing/switching the prefetch tables)").
 *
 * Every N references a context switch flushes the TLB, the prefetch
 * buffer and the prefetcher's on-chip state; the bench sweeps N and
 * reports DP and RP accuracy.  The question is how fast each
 * mechanism re-learns: DP only needs to re-observe its handful of hot
 * distances, while RP/MP must rebuild per-page history.
 *
 * The scheme × app × interval grid runs as one SweepEngine batch.
 *
 * A --workload list substitutes any spec for the default app set —
 * in particular a mix: spec interleaves several address spaces at the
 * mix quantum while the bench's contextSwitchInterval flushes the
 * hardware state, exercising multiprogramming end to end.
 *
 * Usage: ablation_context_switch [--refs N] [--threads N] [--shards N]
 *                                [--csv out.csv] [--json out.json]
 *                                [--workload spec,...] [--mech spec,...]
 *                                [--list-mechanisms]
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tlbpf;
    using namespace tlbpf::bench;

    BenchOptions options = parseBenchOptions(argc, argv);

    const std::uint64_t intervals[] = {0, 500000, 100000, 20000};
    std::vector<MechanismSpec> mechs = selectedMechanisms(
        options,
        std::vector<std::string>{"DP,256,D", "RP", "MP,256,D"});
    std::vector<WorkloadSpec> workloads =
        selectedWorkloads(options, highMissRateApps());

    std::printf("=== Extension: context-switch flushing (refs/app = "
                "%llu) ===\n",
                static_cast<unsigned long long>(options.refs));

    // One batch over the full grid, workload-major then interval then
    // mechanism: the mechanisms sharing one stream and geometry are
    // adjacent, so single-pass mode runs each group as one pass.
    std::vector<SweepJob> jobs;
    for (const WorkloadSpec &workload : workloads) {
        for (std::uint64_t interval : intervals) {
            SimConfig config;
            config.contextSwitchInterval = interval;
            for (const MechanismSpec &spec : mechs)
                jobs.push_back(SweepJob::functional(workload, spec,
                                                    options.refs,
                                                    config));
        }
    }
    std::vector<SweepResult> results = runBatch(options, jobs);
    auto cell = [&](std::size_t m, std::size_t w,
                    std::size_t i) -> const SweepResult & {
        return results[(w * std::size(intervals) + i) * mechs.size() +
                       m];
    };

    MultiSink records = recordSinks(options);
    if (!records.empty())
        records.header({"scheme", "workload", "interval",
                        "accuracy"});

    std::vector<std::string> names = mechanismColumnLabels(mechs);
    for (std::size_t m = 0; m < mechs.size(); ++m) {
        TableSink out("--- " + names[m] +
                      " accuracy vs context-switch interval ---");
        out.header({"workload", "no switch", "every 500k",
                    "every 100k", "every 20k"});
        for (std::size_t w = 0; w < workloads.size(); ++w) {
            std::vector<std::string> row = {workloads[w].label()};
            for (std::size_t i = 0; i < std::size(intervals); ++i) {
                const SweepResult &r = cell(m, w, i);
                row.push_back(TablePrinter::num(r.accuracy(), 3));
                if (!records.empty())
                    records.row({names[m], r.workload,
                                 TablePrinter::num(intervals[i]),
                                 TablePrinter::num(r.accuracy(), 6)});
            }
            out.row(row);
        }
        out.finish();
    }
    records.finish();
    return 0;
}
