/**
 * @file
 * service_mix: a closed loop against an in-process sweep server (a
 * 2-thread engine, a result cache and checkpoint store in a scratch
 * --cache-dir, and one in-process DispatchWorker).  Two clients each
 * wait for every reply before sending the next request, as
 * tlbpf-client does.  Request shapes are those the repository's own
 * clients send; no record of real service traffic exists, so the
 * cadence, the repeat share and the probe's timing below are
 * assumptions (README.md).
 *
 * The seeded schedule is a pass of seven episodes.  In each, the `grid`
 * client sends one request and the `probe` client sends one probe
 * kProbeDelay later, while that request still holds the server's
 * batch lock; the episode ends when both replies are in.
 *
 *  - `grid` requests: four Figure-7 grids (three SPEC2000 apps, the
 *    Figure-7 suite, x the 21 Figure-7 mechanisms at tlbpf-client's
 *    default budget), the distributed-sweep CI smoke grid (art, mcf,
 *    vpr, twolf x none,mp,dp,sp,asp at 2M references), and shard
 *    work: an 8-shard checkpoint chain (tlbpf-client --shards 8) over
 *    two high-miss apps, then a `shard` request of its explicit
 *    `app#k/8` cells that warm from the checkpoints the chain stored.
 *  - probes: the CI service smoke's sequence, one app x the four
 *    figure-legend mechanisms at 50k references cold, the exact
 *    resubmit, then the alias-spelled resubmit, so two probes in three
 *    are answered from the result cache.
 *
 * Every replay of the pass starts on a fresh server with an empty
 * cache-dir, and every episode's requests carry a reference budget
 * unique to the episode, so cold cells are cold in every replay,
 * resubmits hit the cache exactly as scheduled, and the server's
 * simulated/cacheHits totals follow exactly from the requests sent.
 */

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <utility>

#include "service.hh"
#include "sim/experiment.hh"
#include "workload/app_registry.hh"

using namespace tlbpf;

namespace perfbench
{

namespace
{

/** tlbpf-client's default --refs, the budget of its Figure-7 grids. */
constexpr std::uint64_t kFig7Refs = kDefaultBenchRefs;
/** Apps per Figure-7 grid request. */
constexpr std::size_t kFig7Apps = 3;
/** The distributed-sweep CI smoke grid: apps, mechanisms, budget. */
const char *const kFleetApps[] = {"art", "mcf", "vpr", "twolf"};
const char *const kFleetMechs[] = {"none", "mp", "dp", "sp", "asp"};
constexpr std::uint64_t kFleetRefs = 2'000'000;
/** Shard chains: one DP cell per app at the fleet grid's budget. */
const char *const kChainMech = "DP,256,D";
constexpr std::uint64_t kChainRefs = kFleetRefs;
constexpr std::uint32_t kShards = 8;
constexpr std::size_t kChainApps = 2;
/**
 * Assumption: the grid client's requests, one per episode, in this
 * order: F = Figure-7 grid, L = fleet grid, C = shard chain, S =
 * shard request (the chain's 2 x 7 explicit shard cells).  An odd
 * count, so the median probe and grid are one request, not the mean
 * of two unlike ones.
 */
constexpr char kPass[] = "FLFCFSF";
constexpr std::size_t kEpisodes = sizeof(kPass) - 1;
/** The CI service smoke's probe: budget, spellings, alias spellings. */
constexpr std::uint64_t kProbeRefs = 50'000;
const char *const kProbeMechs[] = {"DP,256,D", "RP", "ASP,256,D",
                                   "MP,256,D"};
const char *const kProbeAliases[] = {"dp(rows=256,assoc=dm)", "rp",
                                     "asp(rows=256,assoc=dm)",
                                     "mp(rows=256,assoc=dm)"};
/**
 * Assumption: a probe arrives this long after the episode's grid
 * request, so it queues behind any request that is still running
 * then.  Longer than a delayed ACK (40 ms), so the grid request is
 * surely in the server first, not racing the probe on TCP timers.
 */
constexpr std::int64_t kProbeDelayNs = 50'000'000;
constexpr unsigned kServerThreads = 2;

/** A request of the pass and the cache outcome it must have. */
struct Planned
{
    std::string kind;
    SweepRequest request;
    std::uint64_t cold = 0; ///< cells the server must simulate
    std::uint64_t hits = 0; ///< cells it must answer from cache
    /**
     * The episode whose unique budget offset the request uses: its own
     * for cold requests, the chain's for shard requests, the cold
     * probe's for its resubmits.
     */
    std::size_t budgetFrom = 0;
};

/** One episode: a grid-client request and the probe sent during it. */
struct Episode
{
    Planned grid;
    Planned probe;
};

std::vector<std::string>
suiteApps(const char *suite)
{
    std::vector<std::string> names;
    for (const AppModel *app : appsInSuite(suite))
        names.push_back(app->name);
    return names;
}

/** The seeded pass (budgets without their episode offsets). */
std::vector<Episode>
makePass(const Strata &strata, std::uint64_t seed, const Options &options)
{
    tlbpf::Rng rng(seed);
    std::size_t fig7_grids = std::count(std::begin(kPass),
                                        std::end(kPass), 'F');
    // Figure-7 apps span the suite's miss-rate range (the middle app
    // of each bin, the same for every seed: per-app cost and memory
    // differ several-fold); grid g takes bins g, g + G, g + 2G, one
    // from each third of the range, so the grids cost alike.
    std::vector<std::string> fig7_apps =
        strata.binCentres(suiteApps(kSuiteSpec), fig7_grids * kFig7Apps);
    std::vector<std::string> fig7_mechs;
    for (const MechanismSpec &spec : figure7Specs())
        fig7_mechs.push_back(spec.canonical());
    std::vector<std::string> chain_apps = strata.spread(
        rng, strata.high.size() >= kChainApps ? strata.high : strata.all(),
        kChainApps);
    std::vector<std::string> probe_apps =
        strata.spread(rng, strata.all(), (kEpisodes + 2) / 3);

    std::vector<Episode> pass(kEpisodes);
    std::size_t fig7_next = 0, chain_at = 0;
    std::vector<std::string> shard_cells;
    for (std::size_t e = 0; e < kEpisodes; ++e) {
        Planned &g = pass[e].grid;
        g.budgetFrom = e;
        switch (kPass[e]) {
        case 'F':
            g.kind = "grid";
            for (std::size_t a = 0; a < kFig7Apps; ++a)
                if (fig7_next + a * fig7_grids < fig7_apps.size())
                    g.request.workloads.push_back(
                        fig7_apps[fig7_next + a * fig7_grids]);
            ++fig7_next;
            g.request.mechanisms = fig7_mechs;
            g.request.refs = scaledRefs(options, kFig7Refs);
            break;
        case 'L':
            g.kind = "grid";
            g.request.workloads.assign(std::begin(kFleetApps),
                                       std::end(kFleetApps));
            g.request.mechanisms.assign(std::begin(kFleetMechs),
                                        std::end(kFleetMechs));
            g.request.refs = scaledRefs(options, kFleetRefs);
            break;
        case 'C':
            g.kind = "chain";
            g.request.workloads = chain_apps;
            g.request.mechanisms = {kChainMech};
            g.request.refs = scaledRefs(options, kChainRefs);
            g.request.shards = kShards;
            g.request.shardWarmup = ShardWarmup::Checkpoint;
            chain_at = e;
            shard_cells.clear();
            for (std::uint32_t k = 1; k < kShards; ++k)
                for (const std::string &app : chain_apps)
                    shard_cells.push_back(
                        WorkloadSpec::app(app).withShard(k, kShards).label());
            shard_cells = pick(rng, shard_cells, shard_cells.size());
            break;
        default: // 'S'
            g.kind = "shard";
            g.request.workloads = shard_cells;
            g.request.mechanisms = {kChainMech};
            g.request.refs = scaledRefs(options, kChainRefs);
            g.budgetFrom = chain_at;
            break;
        }
        g.cold = g.request.workloads.size() * g.request.mechanisms.size();

        Planned &p = pass[e].probe;
        p.kind = "probe";
        p.budgetFrom = e - e % 3;
        p.request.workloads = {probe_apps[e / 3]};
        p.request.refs = scaledRefs(options, kProbeRefs);
        if (e % 3 == 2)
            p.request.mechanisms.assign(std::begin(kProbeAliases),
                                        std::end(kProbeAliases));
        else
            p.request.mechanisms.assign(std::begin(kProbeMechs),
                                        std::end(kProbeMechs));
        (e % 3 == 0 ? p.cold : p.hits) = p.request.mechanisms.size();
    }
    return pass;
}

/** Cells and simulated references of a completed request. */
void
addWork(Sample &sample, const RequestRecord &rec)
{
    sample.cells += rec.outcome.results.size();
    // Only cells the server simulated: a cache hit costs it no
    // references.
    for (std::size_t c = 0; c < rec.outcome.results.size(); ++c)
        if (c < rec.cached.size() && !rec.cached[c])
            sample.refs += rec.outcome.results[c].functional.refs;
}

class ServiceMix : public Workload
{
  public:
    explicit ServiceMix(const Options &options) : _options(options) {}
    ~ServiceMix() override { teardown(); }

    void
    setup() override
    {
        _strata = classifyApps(_options);
        _pass = makePass(_strata, _options.seed ^ 0x73657276696365ull,
                         _options);
        _retired = {};
        startServer();
        _next = 0;
        _records.clear();
        _planned.clear();
        _windowBegin = 0;
    }

    void
    teardown() override
    {
        // Clients first: the server joins its session threads, which
        // only end once their peer hangs up.
        _gridClient.reset();
        _probeClient.reset();
        _harness.stop();
    }

    /** Start a server on an empty cache-dir and connect both clients. */
    void
    startServer()
    {
        _harness.start(
            (std::filesystem::path(_options.workDir) / "service-cache")
                .string(),
            kServerThreads);
        _gridClient =
            std::make_unique<ServiceClient>("127.0.0.1", _harness.port());
        _probeClient =
            std::make_unique<ServiceClient>("127.0.0.1", _harness.port());
    }

    /** Lifetime counters of every server since set-up. */
    StatsReply
    totalStats() const
    {
        return statsSum(_retired, _harness.stats());
    }

    void
    describeInputs() const override
    {
        _strata.describe();
        for (std::size_t e = 0; e < _pass.size(); ++e) {
            describePlanned(e, _pass[e].grid);
            describePlanned(e, _pass[e].probe);
        }
        std::printf("input replays: %zu episodes sent, each replay of the "
                    "%zu on a fresh server; budgets offset by 1 + episode\n",
                    _next, _pass.size());
    }

    Measured
    measure(double seconds, Tracer *tracer) override
    {
        StatsReply before = totalStats();
        HostSample start = HostSample::take();
        std::int64_t deadline =
            nowNs() + static_cast<std::int64_t>(seconds * 1e9);
        Measured m;
        _windowBegin = _records.size();

        // The probe client: sends each episode's probe at its time and
        // hands the record back.
        std::mutex mu;
        std::condition_variable cv;
        const Planned *probe_job = nullptr;
        std::int64_t probe_at = 0;
        std::uint64_t probe_id = 0;
        bool probe_done = false, quit = false;
        RequestRecord probe_rec;
        std::thread probe_thread([&] {
            std::unique_lock<std::mutex> lock(mu);
            for (;;) {
                cv.wait(lock, [&] { return quit || probe_job; });
                if (!probe_job)
                    return;
                const Planned *job = probe_job;
                std::int64_t at = probe_at;
                std::uint64_t id = probe_id;
                lock.unlock();
                std::int64_t wait = at - nowNs();
                if (wait > 0)
                    std::this_thread::sleep_for(
                        std::chrono::nanoseconds(wait));
                RequestRecord rec = timedSweep(*_probeClient, job->request,
                                               job->kind, tracer, id);
                lock.lock();
                probe_rec = std::move(rec);
                probe_job = nullptr;
                probe_done = true;
                cv.notify_all();
            }
        });

        while (nowNs() < deadline) {
            std::size_t seq = _next++;
            std::size_t e = seq % _pass.size();
            if (e == 0 && seq > 0) {
                // A fresh server for the replay (outside every sample).
                _retired = totalStats();
                teardown();
                startServer();
            }
            Planned grid = instantiate(_pass[e].grid);
            Planned probe = instantiate(_pass[e].probe);
            double cpu0 = processCpuSeconds();
            std::int64_t t0 = nowNs();
            {
                std::lock_guard<std::mutex> lock(mu);
                probe_job = &probe;
                probe_at = t0 + kProbeDelayNs;
                probe_id = 1'000'000'000 + seq;
                probe_done = false;
            }
            cv.notify_all();
            RequestRecord grid_rec =
                timedSweep(*_gridClient, grid.request, grid.kind, tracer, seq);
            RequestRecord got_probe;
            {
                std::unique_lock<std::mutex> lock(mu);
                cv.wait(lock, [&] { return probe_done; });
                got_probe = std::move(probe_rec);
            }
            Sample episode;
            episode.kind = Sample::Kind::Other;
            episode.key = e * 4;
            episode.ms = msBetween(t0, nowNs());
            episode.cpuS = cpuSince(cpu0);
            bool ok = true;
            for (const auto &[rec, plan] :
                 {std::pair{&grid_rec, &grid}, std::pair{&got_probe, &probe}}) {
                std::uint64_t cells = plan->request.workloads.size() *
                                      plan->request.mechanisms.size();
                m.attempted += cells;
                if (!rec->error.empty()) {
                    m.failed += cells;
                    ok = false;
                    continue;
                }
                addWork(episode, *rec);
                Sample request;
                request.counted = false;
                request.ms = rec->latencyMs();
                if (rec == &got_probe) {
                    request.kind = Sample::Kind::Probe;
                    request.key = e * 4 + 2;
                } else {
                    request.kind = grid.kind == "grid" ? Sample::Kind::Grid
                                                       : Sample::Kind::Other;
                    request.key = e * 4 + 1;
                    request.firstCellMs = msBetween(rec->sent, rec->firstCell);
                }
                m.samples.push_back(request);
            }
            if (ok)
                m.samples.push_back(episode);
            _records.push_back(std::move(grid_rec));
            _planned.push_back(std::move(grid));
            _records.push_back(std::move(got_probe));
            _planned.push_back(std::move(probe));
        }
        {
            std::lock_guard<std::mutex> lock(mu);
            quit = true;
        }
        cv.notify_all();
        probe_thread.join();
        m.host = HostWindow::between(start, HostSample::take());
        _windowDelta = statsDelta(before, totalStats());
        std::printf("service: %zu episodes in window\n",
                    (_records.size() - _windowBegin) / 2);
        return m;
    }

    void
    check(Report &report) override
    {
        // What was sent fixes every request's cache outcome exactly.
        std::uint64_t cells = 0, cold = 0, hits = 0;
        for (std::size_t r = 0; r < _records.size(); ++r) {
            const RequestRecord &rec = _records[r];
            const Planned &p = _planned[r];
            if (!rec.error.empty()) {
                report.fail(rec.kind + " request failed: " + rec.error);
                continue;
            }
            const DoneReply &done = rec.outcome.done;
            if (done.simulated != p.cold || done.cacheHits != p.hits)
                report.fail(rec.kind + " request simulated " +
                            std::to_string(done.simulated) + "/hit " +
                            std::to_string(done.cacheHits) +
                            ", its schedule implies " +
                            std::to_string(p.cold) + "/" +
                            std::to_string(p.hits));
            cells += p.cold + p.hits;
            cold += p.cold;
            hits += p.hits;
        }
        StatsReply total = totalStats();
        if (total.cells != cells || total.cacheHits != hits ||
            total.cacheMisses != cold)
            report.fail("server totals cells/hits/misses " +
                        std::to_string(total.cells) + "/" +
                        std::to_string(total.cacheHits) + "/" +
                        std::to_string(total.cacheMisses) +
                        ", schedule implies " + std::to_string(cells) +
                        "/" + std::to_string(hits) + "/" +
                        std::to_string(cold));

        // Every answer to a cell must equal every other answer to it
        // (cache hits, alias spellings) and the local engine's run of
        // it.  The local run is single-pass, half the cost of running
        // each mechanism alone; traced runs of the batch workloads
        // check single-pass against runSweepJob cell by cell.
        std::map<std::string, const SweepResult *> first;
        std::map<std::string, SweepJob> distinct;
        std::size_t repeats = 0;
        for (const RequestRecord &rec : _records) {
            if (!rec.error.empty())
                continue;
            std::vector<SweepJob> grid = rec.request.expand();
            for (std::size_t i = 0; i < grid.size(); ++i) {
                const SweepResult &got = rec.outcome.results.at(i);
                std::string key = cellKey(grid[i]);
                auto [it, fresh] = first.emplace(key, &got);
                if (!fresh) {
                    ++repeats;
                    if (!sameCounters(got, *it->second) ||
                        got.workload != it->second->workload ||
                        got.mechanism != it->second->mechanism)
                        report.fail("cell " + jobName(grid[i]) +
                                    " answered differently on repeat");
                }
            }
            for (const SweepJob &job : grid)
                distinct.emplace(cellKey(job), job);
        }
        std::vector<SweepJob> jobs;
        for (const auto &[key, job] : distinct)
            jobs.push_back(job);
        SweepEngine local(hostCpus());
        std::vector<SweepResult> expect =
            local.run(jobs, PassMode::SinglePass);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const SweepResult &got = *first.at(cellKey(jobs[i]));
            if (!sameCounters(got, expect[i]) ||
                got.workload != expect[i].workload ||
                got.mechanism != expect[i].mechanism)
                report.fail("streamed cell " + jobName(jobs[i]) +
                            " differs from the local engine");
        }
        std::printf("oracle: %zu distinct streamed cells recomputed by "
                    "the local engine, %zu repeats matched; server totals "
                    "cells=%llu hits=%llu simulated=%llu\n",
                    jobs.size(), repeats,
                    static_cast<unsigned long long>(total.cells),
                    static_cast<unsigned long long>(total.cacheHits),
                    static_cast<unsigned long long>(total.cacheMisses));
    }

    LadderInputs
    ladderInputs() const override
    {
        LadderInputs in = ladderInputsFor(_options, _strata);
        for (const Episode &episode : _pass) {
            if (episode.grid.kind == "grid") {
                in.batch.jobs = instantiate(episode.grid).request.expand();
                break;
            }
        }
        return in;
    }

    bool
    serviceLayer(Report &report) override
    {
        std::vector<const RequestRecord *> window;
        for (std::size_t i = _windowBegin; i < _records.size(); ++i)
            window.push_back(&_records[i]);
        serviceMetrics(report, _windowDelta, window);
        return true;
    }

  private:
    /** @p plan with its episode's budget offset. */
    static Planned
    instantiate(const Planned &plan)
    {
        Planned p = plan;
        p.request.refs += 1 + plan.budgetFrom;
        return p;
    }

    static void
    describePlanned(std::size_t episode, const Planned &p)
    {
        const SweepRequest &r = p.request;
        std::string cells;
        for (const std::string &w : r.workloads)
            cells += (cells.empty() ? "" : ",") + w;
        cells += " x ";
        for (std::size_t m = 0; m < r.mechanisms.size(); ++m)
            cells += (m ? "," : "") + r.mechanisms[m];
        std::printf("input episode %zu %s refs=%llu shards=%u%s %s\n",
                    episode, p.kind.c_str(),
                    static_cast<unsigned long long>(r.refs), r.shards,
                    p.hits ? " repeat" : "", cells.c_str());
    }

    Options _options;
    Strata _strata;
    std::vector<Episode> _pass;
    /** Episodes sent since set-up; the next one is _pass[_next % size]. */
    std::size_t _next = 0;
    ServiceHarness _harness;
    /** Lifetime counters of the servers earlier replays ran on. */
    StatsReply _retired;
    std::unique_ptr<ServiceClient> _gridClient, _probeClient;
    /** Completed requests of every window, and what each was sent as. */
    std::vector<RequestRecord> _records;
    std::vector<Planned> _planned;
    std::size_t _windowBegin = 0;
    StatsReply _windowDelta;
};

} // namespace

std::unique_ptr<Workload>
makeServiceMix(const Options &options)
{
    return std::make_unique<ServiceMix>(options);
}

} // namespace perfbench
