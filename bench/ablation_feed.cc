/**
 * @file
 * Ablation A1: miss-stream-only training (the paper's placement, after
 * the TLB) versus full-reference-stream training, for DP, ASP and MP.
 *
 * The paper remarks (Section 3.2) that "examining only the miss stream
 * from the TLB, and not the actual reference stream ... does not seem
 * to penalize DP in any significant way."  This bench quantifies the
 * claim on the high-miss-rate applications.
 *
 * The app × scheme × feed grid runs as one SweepEngine batch.
 *
 * Usage: ablation_feed [--refs N] [--threads N] [--csv out.csv]
 *                      [--json out.json] [--workload spec,...]
 *                      [--mech spec,...] [--list-mechanisms]
 */

#include <cstdio>

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace tlbpf;
    using namespace tlbpf::bench;

    BenchOptions options = parseBenchOptions(argc, argv);

    std::printf("=== Ablation A1: miss-stream vs reference-stream "
                "training (refs/app = %llu) ===\n",
                static_cast<unsigned long long>(options.refs));

    std::vector<MechanismSpec> mechs = selectedMechanisms(
        options,
        std::vector<std::string>{"DP,256,D", "ASP,256,D", "MP,256,D"});
    std::vector<WorkloadSpec> workloads =
        selectedWorkloads(options, highMissRateApps());

    // Workload-major, then feed (miss-only, full-feed), then
    // mechanism: the mechanisms sharing one stream and geometry are
    // adjacent, so single-pass mode runs each group as one pass.
    SimConfig feeds[2];
    feeds[1].trainOnAllRefs = true;
    std::vector<SweepJob> jobs;
    for (const WorkloadSpec &workload : workloads)
        for (const SimConfig &feed : feeds)
            for (const MechanismSpec &spec : mechs)
                jobs.push_back(SweepJob::functional(workload, spec,
                                                    options.refs, feed));
    std::vector<SweepResult> results = runBatch(options, jobs);

    std::vector<std::string> names = mechanismColumnLabels(mechs);
    TableSink out("prediction accuracy under each training feed");
    std::vector<std::string> header = {"workload"};
    for (const std::string &name : names) {
        header.push_back(name + " miss");
        header.push_back(name + " full");
    }
    out.header(header);
    MultiSink records = recordSinks(options);
    if (!records.empty())
        records.header({"workload", "scheme", "feed", "accuracy"});

    for (std::size_t w = 0; w < workloads.size(); ++w) {
        std::vector<std::string> row = {workloads[w].label()};
        for (std::size_t m = 0; m < mechs.size(); ++m) {
            const SweepResult &miss = results[(2 * w) * mechs.size() + m];
            const SweepResult &full =
                results[(2 * w + 1) * mechs.size() + m];
            row.push_back(TablePrinter::num(miss.accuracy(), 3));
            row.push_back(TablePrinter::num(full.accuracy(), 3));
            if (!records.empty()) {
                records.row({miss.workload, names[m], "miss",
                             TablePrinter::num(miss.accuracy(), 6)});
                records.row({full.workload, names[m], "full",
                             TablePrinter::num(full.accuracy(), 6)});
            }
        }
        out.row(row);
    }
    out.finish();
    records.finish();
    std::printf("(paper expectation: the miss-stream columns are not "
                "significantly below the full-stream ones for DP)\n");
    return 0;
}
