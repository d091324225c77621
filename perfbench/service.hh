/**
 * @file
 * The in-process sweep service both service_mix and the ladder's
 * service rung talk to: a SweepServer (engine, result cache and
 * checkpoint store in a scratch --cache-dir) plus one DispatchWorker
 * leasing cells over loopback, and a timed ServiceClient::sweep that
 * records what one request cost and returned.
 */

#ifndef PERFBENCH_SERVICE_HH
#define PERFBENCH_SERVICE_HH

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"
#include "dispatch/worker.hh"
#include "service/client.hh"
#include "service/server.hh"

namespace perfbench
{

class ServiceHarness
{
  public:
    ServiceHarness() = default;
    ~ServiceHarness() { stop(); }
    ServiceHarness(const ServiceHarness &) = delete;
    ServiceHarness &operator=(const ServiceHarness &) = delete;

    /**
     * Start a server with an @p engine_threads engine over a fresh
     * @p cache_dir and one 1-thread worker; returns once the worker
     * has registered.
     */
    void start(const std::string &cache_dir, unsigned engine_threads);
    /** Stop worker and server, join both, delete the cache dir. */
    void stop();

    std::uint16_t port() const { return _server->port(); }
    tlbpf::StatsReply stats() const { return _server->stats(); }

  private:
    std::string _dir;
    std::unique_ptr<tlbpf::SweepServer> _server;
    std::unique_ptr<tlbpf::DispatchWorker> _worker;
    std::thread _serving;
    std::thread _working;
};

/** What one service request cost and returned. */
struct RequestRecord
{
    std::string kind; ///< grid, shard or probe
    tlbpf::SweepRequest request;
    std::int64_t sent = 0;
    std::int64_t firstCell = 0;
    std::int64_t done = 0;
    /** Arrival times of the frames of cells the server simulated. */
    std::vector<std::int64_t> coldArrivals;
    /** Per cell, in order: answered from the result cache. */
    std::vector<char> cached;
    tlbpf::ServiceClient::SweepOutcome outcome;
    std::string error; ///< non-empty: the request failed

    double latencyMs() const { return msBetween(sent, done); }
};

/** Submit @p request on @p client and record it (never throws). */
RequestRecord timedSweep(tlbpf::ServiceClient &client,
                         const tlbpf::SweepRequest &request,
                         const std::string &kind, Tracer *tracer,
                         std::uint64_t request_id);

/** b - a for every lifetime counter of the stats reply. */
tlbpf::StatsReply statsDelta(const tlbpf::StatsReply &a,
                             const tlbpf::StatsReply &b);

/** a + b for every lifetime counter (two servers' lifetimes in a row). */
tlbpf::StatsReply statsSum(const tlbpf::StatsReply &a,
                           const tlbpf::StatsReply &b);

/**
 * The service.* and dispatch.* per-layer metrics over @p records and
 * the server counters they moved (@p delta).  Cell frames are
 * re-encoded from the records afterwards, so frame accounting costs
 * nothing inside the timed window.
 */
void serviceMetrics(Report &report, const tlbpf::StatsReply &delta,
                    const std::vector<const RequestRecord *> &records);

} // namespace perfbench

#endif // PERFBENCH_SERVICE_HH
