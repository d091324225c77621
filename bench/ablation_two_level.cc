/**
 * @file
 * Extension bench: prefetching in a two-level TLB hierarchy.
 *
 * The paper evaluates a single-level TLB; real d-TLBs are two-level
 * (a point its Section 1 raises via [28, 7]).  This bench places the
 * prefetch logic after the L2 (it observes only L2 misses, an even
 * sparser stream than the paper's) and asks whether DP still predicts:
 * distances between L2 misses remain patterned, so it should.
 *
 * Geometry: 32-entry FA L1 + 128/256-entry FA L2, b = 16.
 *
 * Usage: ablation_two_level [--refs N] [--threads N] [--csv out.csv]
 *                           [--json out.json] [--workload spec,...]
 *                           [--mech spec,...] [--list-mechanisms]
 */

#include <cstdio>

#include "bench_common.hh"
#include "tlb/prefetch_buffer.hh"
#include "tlb/two_level.hh"

namespace
{

using namespace tlbpf;
using namespace tlbpf::bench;

struct TwoLevelResult
{
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t pbHits = 0;

    double
    accuracy() const
    {
        return l2Misses ? static_cast<double>(pbHits) /
                              static_cast<double>(l2Misses)
                        : 0.0;
    }
};

TwoLevelResult
run(const WorkloadSpec &workload, const MechanismSpec &spec,
    std::uint32_t l2_entries, std::uint64_t refs)
{
    TwoLevelTlb tlb({32, 0}, {l2_entries, 0});
    PrefetchBuffer buffer(16);
    PageTable pt;
    auto prefetcher = spec.build(pt);

    TwoLevelResult result;
    PrefetchDecision decision;
    auto stream = workload.build(refs);
    MemRef ref;
    while (stream->next(ref)) {
        Vpn vpn = ref.vpn();
        TlbLevelHit hit = tlb.access(vpn);
        if (hit == TlbLevelHit::L1)
            continue;
        ++result.l1Misses;
        if (hit == TlbLevelHit::L2)
            continue;
        ++result.l2Misses;
        pt.lookup(vpn);

        Tick ready = 0;
        bool pb_hit = buffer.hitAndPromote(vpn, ready);
        result.pbHits += pb_hit;
        std::optional<Vpn> evicted = tlb.insert(vpn);

        if (!prefetcher)
            continue;
        decision.clear();
        prefetcher->onMiss(
            TlbMiss{vpn, ref.pc, pb_hit, evicted.value_or(kNoPage)},
            decision);
        for (Vpn target : decision.targets)
            if (target != vpn && !tlb.contains(target))
                buffer.insertIfAbsent(target);
    }
    return result;
}

} // namespace

int
main(int argc, char **argv)
{
    BenchOptions options = parseBenchOptions(argc, argv);

    std::printf("=== Extension: two-level TLB (32-entry L1 + L2), "
                "prefetcher after the L2 (refs/app = %llu) ===\n",
                static_cast<unsigned long long>(options.refs));

    // The two-level loop is not a registry SweepJob; fan the workload
    // × (mechanism, L2 size) grid out on the thread pool, one slot per
    // cell.  Default cells: dp128 / rp128 / dp256 / rp256; a --mech
    // list replaces the DP/RP pair.  build() throws from the workers;
    // the catch turns that into the clean fatal exit.
    std::vector<WorkloadSpec> workloads =
        selectedWorkloads(options, highMissRateApps());
    requireUnshardedWorkloads(options, workloads, "ablation_two_level");
    std::vector<MechanismSpec> mechs = selectedMechanisms(
        options, std::vector<std::string>{"DP,256,D", "RP"});
    std::vector<std::string> names = mechanismColumnLabels(mechs);
    std::vector<std::pair<std::size_t, std::uint32_t>> cells;
    for (std::uint32_t l2 : {128u, 256u})
        for (std::size_t m = 0; m < mechs.size(); ++m)
            cells.emplace_back(m, l2);
    std::size_t ncells = cells.size();
    std::vector<TwoLevelResult> results(workloads.size() * ncells);
    ThreadPool pool(options.threads);
    try {
        pool.parallelFor(results.size(), [&](std::size_t i) {
            const auto &[m, l2] = cells[i % ncells];
            results[i] = run(workloads[i / ncells], mechs[m], l2,
                             options.refs);
        });
    } catch (const std::invalid_argument &e) {
        tlbpf_fatal(e.what());
    }

    TableSink out("prediction accuracy on the L2 miss stream");
    std::vector<std::string> header = {"workload"};
    for (const auto &[m, l2] : cells)
        header.push_back("L2=" + std::to_string(l2) + " " + names[m]);
    header.push_back("L2-miss rate (128)");
    out.header(header);
    MultiSink records = recordSinks(options);
    if (!records.empty())
        records.header({"workload", "scheme", "l2_entries", "accuracy",
                        "l2_miss_rate"});
    for (std::size_t a = 0; a < workloads.size(); ++a) {
        const TwoLevelResult &first128 = results[a * ncells];
        std::vector<std::string> row = {workloads[a].label()};
        for (std::size_t c = 0; c < ncells; ++c)
            row.push_back(TablePrinter::num(
                results[a * ncells + c].accuracy(), 3));
        row.push_back(TablePrinter::num(
            static_cast<double>(first128.l2Misses) /
                static_cast<double>(options.refs),
            4));
        out.row(row);
        if (!records.empty())
            for (std::size_t c = 0; c < ncells; ++c)
                records.row(
                    {workloads[a].label(), names[cells[c].first],
                     TablePrinter::num(
                         static_cast<std::uint64_t>(cells[c].second)),
                     TablePrinter::num(
                         results[a * ncells + c].accuracy(), 6),
                     TablePrinter::num(
                         static_cast<double>(
                             results[a * ncells + c].l2Misses) /
                             static_cast<double>(options.refs),
                         6)});
    }
    out.finish();
    records.finish();
    return 0;
}
