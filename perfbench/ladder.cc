/**
 * @file
 * The layer ladder of the traced run: the workload's own inputs run
 * through growing slices of the public API, each call wrapped in a
 * span by this file.
 *
 *   stream           WorkloadSpec::build + nextBatch, by kind
 *   + Tlb            Tlb::access/insert over the stream
 *   + sim `none`     FunctionalSimulator: page table, prefetch buffer
 *   + mechanism      simulate() with DP, RP, MP, ASP and SP
 *   simulateMany     the 21 Figure-7 mechanisms over one stream
 *   runSweepJob      every cell of the workload's grid, one by one
 *   SweepEngine      the same grid on 1 and on nproc threads
 *   ServiceClient    the same grid through an in-process server
 *
 * Streams are wrapped in SpannedStream, so a rung's self time (span
 * minus children) excludes generating its references; differences
 * between rungs charge each layer its own cost.  Every rung repeats
 * kReps times and reports the median.
 */

#include <cstdio>
#include <filesystem>
#include <map>

#include "common.hh"
#include "service.hh"
#include "sim/experiment.hh"
#include "sim/timing_sim.hh"
#include "tlb/tlb.hh"

using namespace tlbpf;

namespace perfbench
{

namespace
{

constexpr int kReps = 3;
// Per stream, the budget every grid cell of the workloads runs at.
constexpr std::uint64_t kLadderRefs = kDefaultBenchRefs;

class Ladder
{
  public:
    Ladder(const Options &options, Tracer &tracer, Report &report)
        : _options(options), _tracer(tracer), _report(report)
    {
    }

    void run(Workload &workload);

  private:
    /** Run @p fn inside span @p name; return the span's self time. */
    template <typename Fn>
    double
    selfOf(const char *name, Fn &&fn)
    {
        ScopedSpan span(&_tracer, name);
        std::uint64_t id = span.id();
        fn();
        span.close();
        return static_cast<double>(_tracer.selfNs(id));
    }

    /** A SpannedStream over @p spec, its build a child span too. */
    std::unique_ptr<RefStream>
    spanned(const std::string &spec)
    {
        ScopedSpan span(&_tracer, "stream");
        return std::make_unique<SpannedStream>(
            &_tracer, WorkloadSpec::parse(spec).build(_refs));
    }

    void streams();
    void tlbAndSimulators();
    void snapshots();
    void builds();
    std::vector<SweepResult> grid(const Batch &batch);
    void service(const Batch &batch, const std::vector<SweepResult> &raw);

    const Options &_options;
    Tracer &_tracer;
    Report &_report;
    LadderInputs _in;
    std::uint64_t _refs = 0;
};

void
Ladder::streams()
{
    // Kind -> specs; the rung is build + drain with no consumer.
    std::vector<std::pair<const char *, std::vector<std::string>>> kinds = {
        {"workload.app_ns_per_ref", _in.apps},
        {"workload.mix_ns_per_ref", {_in.mix}},
        {"trace.decode_ns_per_ref", {"trace:" + _in.tracePath}},
    };
    std::vector<MemRef> buf(kSimBatchRefs);
    for (const auto &[metric, specs] : kinds) {
        std::vector<double> per_ref;
        std::uint64_t drained = 0;
        for (int rep = 0; rep < kReps; ++rep) {
            double ns = 0.0;
            drained = 0;
            for (const std::string &spec : specs)
                ns += selfOf("stream.drain", [&] {
                    auto stream = WorkloadSpec::parse(spec).build(_refs);
                    while (std::size_t got =
                               stream->nextBatch(buf.data(), buf.size()))
                        drained += got;
                });
            per_ref.push_back(ns / static_cast<double>(drained));
        }
        _report.add(metric, median(per_ref), "ns",
                    "refs=" + std::to_string(drained));
    }
}

void
Ladder::tlbAndSimulators()
{
    SimConfig config;
    std::vector<MechanismSpec> mechs = familySpecs();
    std::vector<MechanismSpec> fig7 = figure7Specs();
    std::vector<MemRef> buf(kSimBatchRefs);

    std::vector<double> tlb_ns, base_ns, many_ns, timed_ns;
    std::vector<std::vector<double>> mech_ns(mechs.size());
    // Counters are exact, so the first repetition's serve every rep.
    std::vector<SimResult> mech_total(mechs.size());
    std::uint64_t tlb_refs = 0, tlb_misses = 0;
    for (int rep = 0; rep < kReps; ++rep) {
        Rung tlb, base, many, timed;
        std::vector<Rung> mech(mechs.size());
        for (const std::string &app : _in.apps) {
            Tlb model(config.tlb);
            std::uint64_t refs = 0, misses = 0;
            tlb.selfNs += selfOf("tlb", [&] {
                auto stream = spanned(app);
                while (std::size_t got =
                           stream->nextBatch(buf.data(), buf.size())) {
                    for (std::size_t i = 0; i < got; ++i) {
                        Vpn vpn = buf[i].vpn(config.pageBytes);
                        if (!model.access(vpn)) {
                            ++misses;
                            model.insert(vpn);
                        }
                    }
                    refs += got;
                }
            });
            tlb.work += static_cast<double>(refs);
            if (rep == 0) {
                tlb_refs += refs;
                tlb_misses += misses;
            }

            SimResult none;
            base.selfNs += selfOf("sim.none", [&] {
                auto stream = spanned(app);
                none = simulate(config, MechanismSpec::none(), *stream);
            });
            base.work += static_cast<double>(none.refs);

            for (std::size_t m = 0; m < mechs.size(); ++m) {
                SimResult r;
                mech[m].selfNs += selfOf("sim.mech", [&] {
                    auto stream = spanned(app);
                    r = simulate(config, mechs[m], *stream);
                });
                mech[m].work += static_cast<double>(r.misses);
                if (rep == 0)
                    addCounters(mech_total[m], r);
            }

            many.selfNs += selfOf("sim.many", [&] {
                auto stream = spanned(app);
                simulateMany(config, fig7, *stream);
            });
            many.work += static_cast<double>(_refs * fig7.size());

            timed.selfNs += selfOf("sim.timed", [&] {
                auto stream = spanned(app);
                simulateTimed(config, TimingConfig{}, mechs.front(),
                              *stream);
            });
            timed.work += static_cast<double>(_refs);
        }
        tlb_ns.push_back(tlb.perUnit());
        base_ns.push_back(base.perUnit());
        many_ns.push_back(many.perUnit());
        timed_ns.push_back(timed.perUnit());
        // The mechanism's own cost: its rung minus the `none` rung
        // over the same streams, per miss it was handed.
        for (std::size_t m = 0; m < mechs.size(); ++m)
            mech_ns[m].push_back(rungDelta(mech[m], base, mech[m].work));
    }

    _report.add("tlb.ns_per_ref", median(tlb_ns), "ns");
    _report.add("tlb.miss_rate",
                ratio(static_cast<double>(tlb_misses),
                      static_cast<double>(tlb_refs)),
                "share");
    _report.add("sim.base_ns_per_ref", median(base_ns), "ns");
    for (std::size_t m = 0; m < mechs.size(); ++m)
        _report.add(std::string("sim.mech_ns_per_miss.") +
                        families()[m].key,
                    median(mech_ns[m]), "ns");
    _report.add("sim.many_ns_per_ref_mech", median(many_ns), "ns");
    _report.add("sim.timed_ns_per_ref", median(timed_ns), "ns");
    for (std::size_t m = 0; m < mechs.size(); ++m) {
        const SimResult &r = mech_total[m];
        std::string key = families()[m].key;
        _report.add("prefetch.accuracy." + key, r.accuracy(), "share");
        _report.add("prefetch.useful_share." + key,
                    ratio(static_cast<double>(r.pbHits),
                          static_cast<double>(r.prefetchesIssued)),
                    "share");
        _report.add("prefetch.issued_per_miss." + key,
                    ratio(static_cast<double>(r.prefetchesIssued),
                          static_cast<double>(r.misses)),
                    "count");
    }
}

void
Ladder::snapshots()
{
    // Mid-run DP state of the heaviest app: warm tables, full TLB.
    SimConfig config;
    MechanismSpec dp = familySpecs().front();
    FunctionalSimulator sim(config, dp);
    auto stream = WorkloadSpec::parse(_in.apps.back()).build(_refs);
    MemRef ref;
    while (stream->next(ref))
        sim.process(ref);
    std::vector<double> snap_us, restore_us;
    SimState state;
    for (int rep = 0; rep < 2 * kReps + 1; ++rep) {
        snap_us.push_back(selfOf("sim.snapshot",
                                 [&] { state = sim.snapshot(); }) *
                          1e-3);
        FunctionalSimulator fresh(config, dp);
        restore_us.push_back(
            selfOf("sim.restore", [&] { fresh.restore(state); }) * 1e-3);
    }
    _report.add("sim.snapshot_us", median(snap_us), "us");
    _report.add("sim.restore_us", median(restore_us), "us");
    _report.add("sim.snapshot_kb",
                static_cast<double>(state.bytes.size()) / 1024.0, "KiB");
}

void
Ladder::builds()
{
    std::vector<std::string> labels;
    for (const MechanismSpec &spec : figure7Specs())
        labels.push_back(spec.label());
    for (const Family &family : families())
        labels.push_back(family.legend);
    std::vector<double> us;
    for (int rep = 0; rep < kReps; ++rep)
        for (const std::string &label : labels) {
            PageTable pt;
            us.push_back(selfOf("prefetch.build",
                                [&] {
                                    MechanismSpec::parse(label).build(pt);
                                }) *
                         1e-3);
        }
    _report.add("prefetch.build_us", median(us), "us",
                "parse + build, " + std::to_string(labels.size()) +
                    " mechanisms");
}

std::vector<SweepResult>
Ladder::grid(const Batch &batch)
{
    // runSweepJob, one cell at a time on this thread: the reference
    // every faster path must reproduce, and the per-cell cost.
    std::vector<SweepResult> raw;
    std::vector<double> cell_ms;
    double raw_ns = 0.0;
    for (const SweepJob &job : batch.jobs) {
        double ns = selfOf("run.job", [&] { raw.push_back(runSweepJob(job)); });
        raw_ns += ns;
        cell_ms.push_back(ns * 1e-6);
    }
    _report.add("run.cell_ms_p50", median(cell_ms), "ms",
                "n=" + std::to_string(cell_ms.size()));
    _report.add("run.cell_ms_max",
                *std::max_element(cell_ms.begin(), cell_ms.end()), "ms");

    auto compare = [&](const std::vector<SweepResult> &got,
                       const char *path) {
        for (std::size_t i = 0; i < raw.size(); ++i)
            if (!sameCounters(got.at(i), raw[i]))
                _report.fail(std::string(path) + " differs from "
                             "runSweepJob at cell " +
                             jobName(batch.jobs[i]));
    };

    // Scheduling overhead: a 1-worker engine over the same cells,
    // whole and per-mechanism, against the raw loop.
    SweepEngine one(1);
    std::vector<SweepResult> serial;
    double one_ns = selfOf("run.engine1", [&] {
        serial = one.run(batch.jobs, PassMode::PerMechanism);
    });
    compare(serial, "1-worker engine");
    _report.add("run.engine_overhead", ratio(one_ns, raw_ns), "x",
                "1-worker engine / runSweepJob loop");

    // The workload's own batch shape on nproc threads.
    SweepEngine wide(hostCpus());
    std::vector<double> busy_min, busy_max, idle, steals, backoffs, lpt;
    for (int rep = 0; rep < kReps; ++rep) {
        std::vector<SweepResult> results;
        selfOf("run.engine", [&] { results = runBatch(wide, batch); });
        compare(results, "nproc-thread engine");
        const ThreadPool::BatchStats &stats = wide.lastBatchStats();
        double busy = 0.0;
        for (const ThreadPool::WorkerStats &w : stats.workers)
            busy += w.busySeconds;
        busy_min.push_back(stats.busyFractionMin());
        busy_max.push_back(stats.busyFractionMax());
        idle.push_back(1.0 - ratio(busy, stats.seconds *
                                             static_cast<double>(
                                                 stats.workers.size())));
        steals.push_back(static_cast<double>(stats.stealEvents()));
        backoffs.push_back(static_cast<double>(stats.backoffEvents()));
        lpt.push_back(stats.lptImbalance);
    }
    _report.add("run.busy_min", median(busy_min), "share");
    _report.add("run.busy_max", median(busy_max), "share");
    _report.add("run.idle_share", median(idle), "share");
    _report.add("run.steal_events", median(steals), "count");
    _report.add("run.backoff_events", median(backoffs), "count");
    _report.add("run.lpt_imbalance", median(lpt), "x");
    return raw;
}

void
Ladder::service(const Batch &batch, const std::vector<SweepResult> &raw)
{
    // Consecutive cells of one workload, budget, mode and shard count
    // travel as one request; the grid goes cold, then again hot.
    std::vector<std::pair<SweepRequest, std::vector<std::size_t>>> requests;
    for (std::size_t i = 0; i < batch.jobs.size(); ++i) {
        const SweepJob &job = batch.jobs[i];
        std::uint32_t shards = batch.shards.empty() ? 1 : batch.shards[i];
        if (!requests.empty()) {
            SweepRequest &last = requests.back().first;
            if (last.workloads.front() == job.workload.label() &&
                last.refs == job.refs && last.mode == job.mode &&
                last.shards == shards) {
                last.mechanisms.push_back(job.spec.canonical());
                requests.back().second.push_back(i);
                continue;
            }
        }
        SweepRequest request;
        request.workloads = {job.workload.label()};
        request.mechanisms = {job.spec.canonical()};
        request.refs = job.refs;
        request.mode = job.mode;
        request.shards = shards;
        request.passMode = batch.mode;
        requests.push_back({request, {i}});
    }

    ServiceHarness harness;
    harness.start(
        (std::filesystem::path(_options.workDir) / "ladder-cache").string(),
        2);
    std::vector<RequestRecord> records;
    {
        ServiceClient client("127.0.0.1", harness.port());
        std::uint64_t id = 0;
        for (int pass = 0; pass < 2; ++pass)
            for (const auto &[request, cells] : requests)
                records.push_back(timedSweep(client, request,
                                             pass ? "hit" : "miss",
                                             &_tracer, ++id));
    }
    StatsReply stats = harness.stats();
    harness.stop();

    std::vector<const RequestRecord *> views;
    for (std::size_t r = 0; r < records.size(); ++r) {
        const RequestRecord &rec = records[r];
        views.push_back(&rec);
        const std::vector<std::size_t> &cells =
            requests[r % requests.size()].second;
        if (!rec.error.empty()) {
            _report.fail("ladder service request failed: " + rec.error);
            continue;
        }
        for (std::size_t k = 0; k < cells.size(); ++k)
            if (!sameCounters(rec.outcome.results.at(k), raw[cells[k]]))
                _report.fail("service rung differs from runSweepJob at "
                             "cell " +
                             jobName(batch.jobs[cells[k]]));
    }
    serviceMetrics(_report, stats, views);
}

void
Ladder::run(Workload &workload)
{
    _in = workload.ladderInputs();
    _refs = scaledRefs(_options, kLadderRefs);
    if (_in.tracePath.empty()) {
        Rng rng(_options.seed ^ 0x6c6164646572ull);
        _in.tracePath =
            (std::filesystem::path(_options.workDir) / "ladder-trace.tpf")
                .string();
        std::printf("ladder trace %s: %s\n", _in.tracePath.c_str(),
                    writeSeededTrace(_in.tracePath, rng, _refs,
                                     static_cast<unsigned>(rng.nextBelow(
                                         kTraceKinds)))
                        .c_str());
    }
    std::printf("ladder inputs: apps=");
    for (const std::string &app : _in.apps)
        std::printf("%s ", app.c_str());
    std::printf("mix=%s trace=%s refs=%llu grid=%zu cells\n",
                _in.mix.c_str(), _in.tracePath.c_str(),
                static_cast<unsigned long long>(_refs),
                _in.batch.jobs.size());

    streams();
    tlbAndSimulators();
    snapshots();
    builds();
    std::vector<SweepResult> raw = grid(_in.batch);
    if (!workload.serviceLayer(_report))
        service(_in.batch, raw);
}

} // namespace

void
runLadder(const Options &options, Workload &workload, Tracer &tracer,
          Report &report)
{
    Ladder(options, tracer, report).run(workload);
}

} // namespace perfbench
