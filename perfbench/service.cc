#include "service.hh"

#include <chrono>
#include <filesystem>
#include <stdexcept>

using namespace tlbpf;

namespace perfbench
{

namespace
{
/** Keeps the decode loop from being optimised away. */
volatile std::uint64_t gParseSink = 0;

/**
 * Plan jobs the server ran for @p rec: its simulated (not cached)
 * cells after shard expansion, the unit Dispatcher leases and counts
 * in cellsDispatched.  The server plans only the cells it did not
 * answer from cache, expanding them exactly as SweepServer does.
 */
std::uint64_t
simulatedPlanJobs(const RequestRecord &rec)
{
    std::vector<SweepJob> cells = rec.request.expand();
    std::vector<SweepJob> simulated;
    for (std::size_t i = 0; i < cells.size() && i < rec.cached.size(); ++i)
        if (!rec.cached[i])
            simulated.push_back(cells[i]);
    if (rec.request.shards > 1 && rec.request.mode == JobMode::Functional)
        return expandShards(simulated, rec.request.shards).jobs.size();
    return simulated.size();
}
} // namespace

void
ServiceHarness::start(const std::string &cache_dir, unsigned engine_threads)
{
    stop();
    _dir = cache_dir;
    std::filesystem::remove_all(_dir);
    std::filesystem::create_directories(_dir);

    ServerOptions options;
    options.port = 0; // ephemeral: concurrent runs never clash
    options.threads = engine_threads;
    options.cacheDir = _dir;
    // Large enough that no cell is ever evicted, so the cache hits a
    // schedule implies are exact.
    options.cacheCapacity = 1u << 20;
    options.checkpointCapacity = 4096;
    _server = std::make_unique<SweepServer>(options);
    _serving = std::thread([this] {
        try {
            _server->serve();
        } catch (const std::exception &) {
            // stop() still joins; the run's oracle reports the loss.
        }
    });

    DispatchWorkerOptions worker;
    worker.port = _server->port();
    worker.threads = 1;
    worker.cacheDir = _dir;
    worker.reconnectMs = 20;
    worker.maxReconnectAttempts = 50;
    _worker = std::make_unique<DispatchWorker>(worker);
    _working = std::thread([this] {
        try {
            _worker->run();
        } catch (const std::exception &) {
        }
    });

    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (_server->stats().workers < 1) {
        if (std::chrono::steady_clock::now() > deadline) {
            stop();
            throw std::runtime_error("dispatch worker never registered");
        }
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
}

void
ServiceHarness::stop()
{
    if (_worker) {
        _worker->requestStop();
        if (_working.joinable())
            _working.join();
        _worker.reset();
    }
    if (_server) {
        _server->requestStop();
        if (_serving.joinable())
            _serving.join();
        _server.reset();
    }
    if (!_dir.empty()) {
        std::error_code ignored;
        std::filesystem::remove_all(_dir, ignored);
        _dir.clear();
    }
}

RequestRecord
timedSweep(ServiceClient &client, const SweepRequest &request,
           const std::string &kind, Tracer *tracer,
           std::uint64_t request_id)
{
    RequestRecord rec;
    rec.kind = kind;
    rec.request = request;
    ScopedSpan span(tracer, kind, request_id);
    rec.sent = nowNs();
    try {
        rec.outcome = client.sweep(request, [&](const CellReply &cell) {
            std::int64_t t = nowNs();
            if (rec.cached.empty())
                rec.firstCell = t;
            if (!cell.cached)
                rec.coldArrivals.push_back(t);
            rec.cached.push_back(cell.cached ? 1 : 0);
        });
    } catch (const std::exception &e) {
        rec.error = e.what();
    }
    rec.done = nowNs();
    if (rec.cached.empty())
        rec.firstCell = rec.done;
    return rec;
}

StatsReply
statsDelta(const StatsReply &a, const StatsReply &b)
{
    StatsReply d = b;
    d.requests -= a.requests;
    d.cells -= a.cells;
    d.cacheHits -= a.cacheHits;
    d.cacheMisses -= a.cacheMisses;
    d.cacheEvictions -= a.cacheEvictions;
    d.checkpointsStored -= a.checkpointsStored;
    d.checkpointsLoaded -= a.checkpointsLoaded;
    d.leasesGranted -= a.leasesGranted;
    d.leaseReclaims -= a.leaseReclaims;
    d.cellsDispatched -= a.cellsDispatched;
    d.storeEvictedFiles -= a.storeEvictedFiles;
    d.storeEvictedBytes -= a.storeEvictedBytes;
    return d;
}

StatsReply
statsSum(const StatsReply &a, const StatsReply &b)
{
    StatsReply d = b;
    d.requests += a.requests;
    d.cells += a.cells;
    d.cacheHits += a.cacheHits;
    d.cacheMisses += a.cacheMisses;
    d.cacheEvictions += a.cacheEvictions;
    d.checkpointsStored += a.checkpointsStored;
    d.checkpointsLoaded += a.checkpointsLoaded;
    d.leasesGranted += a.leasesGranted;
    d.leaseReclaims += a.leaseReclaims;
    d.cellsDispatched += a.cellsDispatched;
    d.storeEvictedFiles += a.storeEvictedFiles;
    d.storeEvictedBytes += a.storeEvictedBytes;
    return d;
}

void
serviceMetrics(Report &report, const StatsReply &delta,
               const std::vector<const RequestRecord *> &records)
{
    constexpr std::size_t kParseSample = 2000;
    double frame_bytes = 0.0;
    std::vector<std::string> sample;
    std::vector<double> hit_ms, miss_ms, gaps_ms;
    std::uint64_t plan_jobs = 0;
    for (const RequestRecord *rec : records) {
        if (!rec->error.empty())
            continue;
        plan_jobs += simulatedPlanJobs(*rec);
        const auto &results = rec->outcome.results;
        for (std::size_t i = 0; i < results.size(); ++i) {
            // What the server wrote for this cell (SweepServer's own
            // reply construction), byte for byte.
            CellReply cell;
            cell.index = i;
            cell.workload = results[i].workload;
            cell.mechanism = results[i].mechanism;
            cell.mode = results[i].mode;
            cell.cached = i < rec->cached.size() && rec->cached[i];
            cell.counters = results[i].functional;
            cell.timed = results[i].timed;
            std::string frame = cell.encode();
            frame_bytes += static_cast<double>(frame.size());
            if (sample.size() < kParseSample)
                sample.push_back(std::move(frame));
        }
        (rec->outcome.done.simulated ? miss_ms : hit_ms)
            .push_back(rec->latencyMs());
        for (std::size_t i = 1; i < rec->coldArrivals.size(); ++i)
            gaps_ms.push_back(
                msBetween(rec->coldArrivals[i - 1], rec->coldArrivals[i]));
    }

    std::vector<double> parse_us;
    for (int pass = 0; pass < 3 && !sample.empty(); ++pass) {
        std::int64_t t0 = nowNs();
        std::uint64_t sink = 0;
        for (const std::string &frame : sample)
            sink += CellReply::decode(JsonValue::parse(frame)).index;
        parse_us.push_back(static_cast<double>(nowNs() - t0) * 1e-3 /
                           static_cast<double>(sample.size()));
        gParseSink = sink;
    }

    report.add("service.frame_kb_per_cell",
               ratio(frame_bytes, static_cast<double>(delta.cells)) / 1024.0,
               "KiB");
    report.add("service.json_parse_us_per_cell", median(parse_us), "us");
    report.add("service.cache_hit_share",
               ratio(static_cast<double>(delta.cacheHits),
                     static_cast<double>(delta.cells)),
               "share");
    report.add("service.cache_evictions",
               static_cast<double>(delta.cacheEvictions), "count");
    report.add("service.checkpoints_loaded",
               static_cast<double>(delta.checkpointsLoaded), "count");
    report.add("service.checkpoints_stored",
               static_cast<double>(delta.checkpointsStored), "count");
    report.add("service.hit_request_ms_p50", median(hit_ms), "ms",
               "n=" + std::to_string(hit_ms.size()));
    report.add("service.miss_request_ms_p50", median(miss_ms), "ms",
               "n=" + std::to_string(miss_ms.size()));
    report.add("service.cold_cell_gap_ms_p50", median(gaps_ms), "ms",
               "n=" + std::to_string(gaps_ms.size()));
    report.add("dispatch.remote_share",
               ratio(static_cast<double>(delta.cellsDispatched),
                     static_cast<double>(plan_jobs)),
               "share",
               "plan jobs run remotely / " + std::to_string(plan_jobs) +
                   " plan jobs simulated");
    report.add("dispatch.leases_granted",
               static_cast<double>(delta.leasesGranted), "count");
    report.add("dispatch.lease_reclaims",
               static_cast<double>(delta.leaseReclaims), "count");
}

} // namespace perfbench
