/**
 * @file
 * Tests for the distributed dispatch subsystem: the worker wire verbs
 * (strict encode/decode), the Dispatcher's lease lifecycle under
 * failure (dead worker mid-lease, expired lease discarded without
 * double-counting, heartbeats keeping a slow-but-alive worker's work,
 * worker-side errors requeueing local-only, chains granted alone and
 * merged bit-identically, replay shards leased as plain cells, a
 * mixed plan through an in-process worker against the serial oracle),
 * a chain on a worker without a cache dir simulating each reference
 * once, the server's worker sessions (malformed
 * cell_result drops only that worker; --max-clients sheds with an
 * error frame; concurrent clients account a shared cache exactly; a
 * worker fleet produces byte-identical sweeps), and the disk-store
 * eviction sweep (TTL, LRU budget, touch-on-read recency).
 */

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <atomic>
#include <cstdlib>
#include <fcntl.h>
#include <netinet/in.h>
#include <stdexcept>
#include <string>
#include <sys/stat.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "dispatch/dispatch_protocol.hh"
#include "dispatch/dispatcher.hh"
#include "dispatch/worker.hh"
#include "prefetch/mech_spec.hh"
#include "prefetch/prefetcher.hh"
#include "run/sweep_engine.hh"
#include "service/client.hh"
#include "service/json.hh"
#include "service/protocol.hh"
#include "service/server.hh"
#include "service/store_util.hh"
#include "util/check.hh"

namespace tlbpf
{
namespace
{

constexpr std::uint64_t kRefs = 20000;

/** A fresh empty directory under the test temp root. */
std::string
makeTempDir()
{
    std::string pattern = ::testing::TempDir() + "tlbpf_dsp_XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    const char *dir = ::mkdtemp(buf.data());
    EXPECT_NE(dir, nullptr);
    return dir ? dir : "";
}

/** Raw client socket, for tests that speak the wire by hand. */
OwnedFd
rawConnect(std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    return OwnedFd(fd);
}

/** A grid of plain functional cells (one group per cell). */
std::vector<SweepJob>
functionalGrid(const std::vector<const char *> &apps,
               const std::vector<const char *> &mechs,
               std::uint64_t refs = kRefs)
{
    std::vector<SweepJob> jobs;
    for (const char *app : apps)
        for (const char *mech : mechs)
            jobs.push_back(SweepJob::functional(
                WorkloadSpec::app(app), MechanismSpec::parse(mech),
                refs));
    return jobs;
}

ShardPlan
singletonPlan(std::vector<SweepJob> jobs)
{
    ShardPlan plan;
    plan.groupSizes.assign(jobs.size(), 1);
    plan.jobs = std::move(jobs);
    return plan;
}

/** Register + promote a raw socket to a worker session by hand. */
WorkerWelcome
rawWorkerHello(int fd, unsigned threads = 2)
{
    WorkerHello hello;
    hello.threads = threads;
    writeFrame(fd, hello.encode());
    JsonValue message;
    std::string type;
    EXPECT_TRUE(readMessage(fd, message, type));
    EXPECT_EQ(type, "worker_welcome");
    return WorkerWelcome::decode(message);
}

/** Set a file's mtime to @p seconds_ago before now. */
void
ageFile(const std::string &path, std::uint64_t seconds_ago)
{
    timespec times[2];
    ::clock_gettime(CLOCK_REALTIME, &times[0]);
    times[0].tv_sec -= static_cast<time_t>(seconds_ago);
    times[1] = times[0];
    ASSERT_EQ(::utimensat(AT_FDCWD, path.c_str(), times, 0), 0);
}

void
writeBytes(const std::string &path, std::size_t count)
{
    std::vector<std::uint8_t> bytes(count, 0x5a);
    ASSERT_TRUE(writeFileBytesAtomic(path, bytes.data(), count));
}

bool
fileExists(const std::string &path)
{
    struct stat info;
    return ::stat(path.c_str(), &info) == 0;
}

/**
 * Heavy enough that a batch is in flight for ~100ms — plenty for the
 * lease-acquisition spin below to win against the local drain loops.
 */
constexpr std::uint64_t kSlowRefs = 1000000;

/**
 * Spin for a lease while the batch is still running.  Returns false
 * (instead of hanging) if the batch drained before a grant landed —
 * callers ASSERT on it, so a scheduling fluke fails loudly and fast.
 */
bool
leaseSoon(Dispatcher &dispatcher, std::uint64_t worker,
          LeaseGrant &out, const std::atomic<bool> &batch_done)
{
    while (!batch_done.load()) {
        if (dispatcher.lease(worker, out))
            return true;
        std::this_thread::yield();
    }
    return false;
}

/** onMiss calls made by every "tcount" instance in this process. */
std::atomic<std::uint64_t> gCountedMisses{0};

/**
 * A checkpointable mechanism that predicts nothing and counts its
 * misses: its global total says how many references a batch actually
 * simulated past the TLB, however the work was split.
 */
class MissCounter : public Prefetcher
{
  public:
    void
    onMiss(const TlbMiss &, PrefetchDecision &) override
    {
        gCountedMisses.fetch_add(1, std::memory_order_relaxed);
    }

    void reset() override {}
    std::string name() const override { return "TCOUNT"; }
    std::string label() const override { return "tcount"; }
    HardwareProfile hardwareProfile() const override { return {}; }
    bool checkpointable() const override { return true; }
    void snapshotState(SnapshotWriter &) const override {}
    void restoreState(SnapshotReader &) override {}
};

/** Next-page prediction that never opts into checkpointing. */
class NextPageNoCheckpoint : public Prefetcher
{
  public:
    explicit NextPageNoCheckpoint(PageTable &pt) : _pt(pt) {}

    void
    onMiss(const TlbMiss &miss, PrefetchDecision &decision) override
    {
        _pt.lookup(miss.vpn + 1);
        decision.targets.push_back(miss.vpn + 1);
    }

    void reset() override {}
    std::string name() const override { return "TNOCKPT"; }
    std::string label() const override { return "tnockpt"; }
    HardwareProfile hardwareProfile() const override { return {}; }

  private:
    PageTable &_pt;
};

/** Register "tcount" and "tnockpt" once per process. */
void
registerTestMechanisms()
{
    static const bool registered = [] {
        MechanismEntry count;
        count.name = "tcount";
        count.shortName = "TCOUNT";
        count.summary = "miss counter, registered by test_dispatch";
        count.build = [](const MechanismSpec &, PageTable &) {
            return std::make_unique<MissCounter>();
        };
        MechanismRegistry::instance().add(count);
        MechanismEntry next;
        next.name = "tnockpt";
        next.shortName = "TNOCKPT";
        next.summary = "uncheckpointable next page, by test_dispatch";
        next.build = [](const MechanismSpec &, PageTable &pt) {
            return std::make_unique<NextPageNoCheckpoint>(pt);
        };
        MechanismRegistry::instance().add(next);
        return true;
    }();
    (void)registered;
}

// --------------------------------------------------------- wire verbs

TEST(DispatchProtocol, VerbsRoundTripExactly)
{
    WorkerHello hello;
    hello.threads = 8;
    WorkerHello hello2 =
        WorkerHello::decode(JsonValue::parse(hello.encode()));
    EXPECT_EQ(hello2.protocol, kDispatchProtocolVersion);
    EXPECT_EQ(hello2.threads, 8u);

    WorkerWelcome welcome;
    welcome.worker = 7;
    welcome.heartbeatMs = 500;
    WorkerWelcome welcome2 =
        WorkerWelcome::decode(JsonValue::parse(welcome.encode()));
    EXPECT_EQ(welcome2.worker, 7u);
    EXPECT_EQ(welcome2.heartbeatMs, 500u);

    LeaseGrant grant;
    grant.lease = 42;
    grant.chain = true;
    grant.jobs = functionalGrid({"gcc"}, {"rp", "dp"});
    LeaseGrant grant2 =
        LeaseGrant::decode(JsonValue::parse(grant.encode()));
    EXPECT_EQ(grant2.lease, 42u);
    EXPECT_TRUE(grant2.chain);
    ASSERT_EQ(grant2.jobs.size(), 2u);
    EXPECT_EQ(grant2.jobs[0].workload.label(),
              grant.jobs[0].workload.label());
    EXPECT_EQ(grant2.jobs[1].spec.canonical(),
              grant.jobs[1].spec.canonical());
    EXPECT_EQ(grant2.jobs[0].refs, kRefs);

    EXPECT_EQ(decodeLeaseRequest(
                  JsonValue::parse(encodeLeaseRequest(3))),
              3u);
    EXPECT_EQ(decodeHeartbeat(JsonValue::parse(encodeHeartbeat(9))),
              9u);
    EXPECT_EQ(JsonValue::parse(encodeLeaseIdle()).at("type").asString(),
              "lease_idle");
    EXPECT_TRUE(
        decodeResultAck(JsonValue::parse(encodeResultAck(true))));
    EXPECT_FALSE(
        decodeResultAck(JsonValue::parse(encodeResultAck(false))));

    // A completed lease's counters survive the wire bit-for-bit.
    CellResultMsg answer;
    answer.lease = 42;
    answer.results.push_back(runSweepJob(grant.jobs[0]));
    answer.results.push_back(runSweepJob(grant.jobs[1]));
    CellResultMsg answer2 =
        CellResultMsg::decode(JsonValue::parse(answer.encode()));
    EXPECT_FALSE(answer2.failed());
    ASSERT_EQ(answer2.results.size(), 2u);
    EXPECT_EQ(answer2.results[0].functional,
              answer.results[0].functional);
    EXPECT_EQ(answer2.results[1].functional,
              answer.results[1].functional);

    CellResultMsg failure;
    failure.lease = 42;
    failure.error = "no such trace";
    CellResultMsg failure2 =
        CellResultMsg::decode(JsonValue::parse(failure.encode()));
    EXPECT_TRUE(failure2.failed());
    EXPECT_EQ(failure2.error, "no such trace");
}

TEST(DispatchProtocol, RejectsMalformedVerbs)
{
    for (const char *bad : {
             // Wrong protocol version.
             "{\"type\":\"worker_hello\",\"protocol\":2,"
             "\"threads\":1}",
             // Unknown key (strictness contract).
             "{\"type\":\"worker_hello\",\"protocol\":1,"
             "\"threads\":1,\"x\":1}",
             // Zero threads.
             "{\"type\":\"worker_hello\",\"protocol\":1,"
             "\"threads\":0}",
         })
        EXPECT_THROW(
            WorkerHello::decode(JsonValue::parse(bad)),
            std::invalid_argument)
            << "input: " << bad;

    // A grant must carry at least one job.
    EXPECT_THROW(LeaseGrant::decode(JsonValue::parse(
                     "{\"type\":\"lease_grant\",\"lease\":1,"
                     "\"chain\":false,\"jobs\":[]}")),
                 std::invalid_argument);

    // A cell_result is a success XOR an error, never both or neither.
    for (const char *bad : {
             "{\"type\":\"cell_result\",\"lease\":1}",
             "{\"type\":\"cell_result\",\"lease\":1,"
             "\"results\":[]}",
             "{\"type\":\"cell_result\",\"lease\":1,\"error\":\"\"}",
         })
        EXPECT_THROW(
            CellResultMsg::decode(JsonValue::parse(bad)),
            std::invalid_argument)
            << "input: " << bad;
}

// --------------------------------------------- dispatcher lease cycle

TEST(Dispatcher, DeadWorkerMidLeaseIsReclaimedAndBatchCompletes)
{
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000; // only the death path reclaims
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs = functionalGrid(
        {"gcc", "mcf", "swim", "art"}, {"rp", "dp"}, kSlowRefs);
    ShardPlan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(2);
    std::atomic<bool> batch_done{false};
    std::vector<std::size_t> order;
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan, ShardWarmup::Replay, PassMode::PerMechanism,
            [&](std::size_t i, const SweepResult &) {
                order.push_back(i);
            });
        batch_done.store(true);
    });

    // Take a lease, then die without answering it.
    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    EXPECT_GT(grant.jobs.size(), 0u);
    dispatcher.unregisterWorker(worker);
    batch.join();

    // The batch completed locally, every cell exactly once, in
    // submission order, bit-identical to a plain engine run.
    ASSERT_EQ(order.size(), jobs.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);
    std::vector<SweepResult> direct = engine.run(jobs);
    ASSERT_EQ(results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional)
            << "cell " << i;
    EXPECT_GE(dispatcher.counters().leaseReclaims, 1u);

    // A result for the dead worker's lease is discarded, not applied.
    EXPECT_FALSE(dispatcher.completeLease(grant.lease, {}));
    EXPECT_EQ(dispatcher.lastBatchStats().remoteCells, 0u);
}

TEST(Dispatcher, ExpiredLeaseResultIsDiscardedNotDoubleCounted)
{
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 150; // expire fast; never heartbeat
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    ShardPlan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::atomic<std::uint64_t> streamed{0};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan, ShardWarmup::Replay, PassMode::PerMechanism,
            [&](std::size_t, const SweepResult &) {
                streamed.fetch_add(1);
            });
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    // Sit on the lease past its deadline: a local drain loop reclaims
    // it and the batch finishes without us.
    batch.join();
    EXPECT_GE(dispatcher.counters().leaseReclaims, 1u);

    // The late result must be discarded — its cells were already
    // emitted once by the reclaim path.
    std::vector<SweepResult> late(grant.jobs.size());
    EXPECT_FALSE(dispatcher.completeLease(grant.lease,
                                          std::move(late)));
    EXPECT_EQ(streamed.load(), jobs.size()); // exactly once each

    std::vector<SweepResult> direct = engine.run(jobs);
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional);
    dispatcher.unregisterWorker(worker);
}

/**
 * The OrderedEmitter sits between the dispatcher and the caller's
 * callback: results may complete in any order, but delivery is
 * submission order, and the TLBPF_DCHECK layer guards the two ways
 * that contract can rot — double completion and range overrun.
 */
TEST(OrderedEmitter, DeliversSubmissionOrderAcrossAnyCompletionOrder)
{
    std::vector<SweepResult> results(4);
    std::vector<std::size_t> order;
    SweepEngine::ResultCallback cb =
        [&](std::size_t i, const SweepResult &) {
            order.push_back(i);
        };
    OrderedEmitter emitter(cb, results);
    emitter.complete(2, 1);
    emitter.complete(3, 1);
    EXPECT_TRUE(order.empty()); // slot 0 still pending
    emitter.complete(0, 1);
    ASSERT_EQ(order.size(), 1u);
    EXPECT_EQ(order[0], 0u);
    emitter.complete(1, 1); // releases the whole held-back tail
    ASSERT_EQ(order.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(OrderedEmitter, DoubleCompletionTripsTheInvariant)
{
    if (!dchecksEnabled())
        GTEST_SKIP() << "TLBPF_DCHECK is compiled out of this build";
    ScopedCheckFailThrow guard;
    std::vector<SweepResult> results(3);
    SweepEngine::ResultCallback cb;
    OrderedEmitter emitter(cb, results);
    emitter.complete(1, 1);
    // Completing the same slot again is the double-accounting the
    // dispatcher's lease-discard path exists to prevent.
    EXPECT_THROW(emitter.complete(1, 1), CheckFailure);
    // Overlap through a range hits the same wall.
    EXPECT_THROW(emitter.complete(0, 2), CheckFailure);
}

TEST(OrderedEmitter, CompletionBeyondTheBatchTripsTheInvariant)
{
    if (!dchecksEnabled())
        GTEST_SKIP() << "TLBPF_DCHECK is compiled out of this build";
    ScopedCheckFailThrow guard;
    std::vector<SweepResult> results(4);
    SweepEngine::ResultCallback cb;
    OrderedEmitter emitter(cb, results);
    EXPECT_THROW(emitter.complete(3, 2), CheckFailure);
    EXPECT_THROW(emitter.complete(5, 0), CheckFailure);
    emitter.complete(3, 1); // the in-range suffix is still fine
}

/**
 * A result for a reclaimed lease must take the graceful discard path
 * (completeLease == false) and never reach the emitter — whose
 * double-completion DCHECK stays armed throughout to prove it.  The
 * wrong-size payload on a live lease is the protocol-level rejection
 * (invalid_argument), not an invariant failure.
 */
TEST(Dispatcher, ReclaimedLeaseCompletionIsDiscardedNotDoubleEmitted)
{
    ScopedCheckFailThrow guard; // any stray DCHECK becomes a throw
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 150; // expire fast; never heartbeat
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    ShardPlan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::atomic<std::uint64_t> streamed{0};
    std::thread batch([&] {
        (void)dispatcher.runBatch(
            plan, ShardWarmup::Replay, PassMode::PerMechanism,
            [&](std::size_t, const SweepResult &) {
                streamed.fetch_add(1);
            });
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    batch.join(); // the deadline passes; the batch drains locally
    EXPECT_GE(dispatcher.counters().leaseReclaims, 1u);

    // A correctly-shaped payload for the reclaimed lease: discarded,
    // and the emitter (already fully completed once) never sees it.
    std::vector<SweepResult> late(grant.jobs.size());
    EXPECT_FALSE(
        dispatcher.completeLease(grant.lease, std::move(late)));
    EXPECT_EQ(streamed.load(), jobs.size());
    dispatcher.unregisterWorker(worker);
}

TEST(Dispatcher, WrongSizedPayloadOnALiveLeaseIsRejected)
{
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000; // stays live for the whole test
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    ShardPlan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::thread batch([&] {
        (void)dispatcher.runBatch(
            plan, ShardWarmup::Replay, PassMode::PerMechanism,
            SweepEngine::ResultCallback());
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    std::vector<SweepResult> short_payload(grant.jobs.size() - 1);
    EXPECT_THROW(
        dispatcher.completeLease(grant.lease,
                                 std::move(short_payload)),
        std::invalid_argument);
    // The lease is still live after the rejection; the real payload
    // completes it normally.
    std::vector<SweepResult> payload(grant.jobs.size());
    EXPECT_TRUE(
        dispatcher.completeLease(grant.lease, std::move(payload)));
    batch.join();
    dispatcher.unregisterWorker(worker);
}

TEST(Dispatcher, HeartbeatKeepsASlowButAliveWorkersLease)
{
    SweepEngine engine(1);
    DispatcherOptions options;
    options.leaseTimeoutMs = 250;
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    ShardPlan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(2);
    std::atomic<bool> batch_done{false};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan, ShardWarmup::Replay, PassMode::PerMechanism,
            [](std::size_t, const SweepResult &) {});
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));

    // Hold the lease well past two full timeout windows, heartbeating
    // the whole way: the dispatcher must NOT reclaim it.  The pulse
    // keeps running through the compute below, as a real worker's
    // heartbeat thread does (compute alone can outlast the timeout on
    // instrumented builds).
    std::atomic<bool> hold_done{false};
    std::thread pulse([&] {
        while (!hold_done.load()) {
            dispatcher.heartbeat(worker);
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(600));
    std::vector<SweepResult> computed;
    for (const SweepJob &job : grant.jobs)
        computed.push_back(runSweepJob(job));
    EXPECT_TRUE(
        dispatcher.completeLease(grant.lease, std::move(computed)));
    hold_done.store(true);
    pulse.join();
    batch.join();

    EXPECT_EQ(dispatcher.counters().leaseReclaims, 0u);
    Dispatcher::BatchStats stats = dispatcher.lastBatchStats();
    EXPECT_EQ(stats.remoteCells, grant.jobs.size());
    EXPECT_EQ(stats.cells, jobs.size());
    double busy = 0;
    for (const auto &entry : stats.workerBusy)
        if (entry.first == worker)
            busy = entry.second;
    EXPECT_GT(busy, 0.4); // it held the lease for >= 600ms

    std::vector<SweepResult> direct = engine.run(jobs);
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional);
    dispatcher.unregisterWorker(worker);
}

TEST(Dispatcher, FailedLeaseRerunsLocallyOnly)
{
    SweepEngine engine(2);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000;
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp", "dp"}, kSlowRefs);
    ShardPlan plan = singletonPlan(jobs);

    std::uint64_t worker = dispatcher.registerWorker(1);
    std::atomic<bool> batch_done{false};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan, ShardWarmup::Replay, PassMode::PerMechanism,
            [](std::size_t, const SweepResult &) {});
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    dispatcher.failLease(grant.lease); // "I cannot run these cells"
    batch.join();

    EXPECT_EQ(dispatcher.counters().remoteFailures, 1u);
    EXPECT_EQ(dispatcher.lastBatchStats().remoteCells, 0u);
    std::vector<SweepResult> direct = engine.run(jobs);
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional);
    dispatcher.unregisterWorker(worker);
}

TEST(Dispatcher, ChainIsGrantedAloneAndMergesBitIdentically)
{
    SweepEngine engine(1);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000;
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp"}, kSlowRefs);
    ShardPlan plan = expandShards(jobs, 4);

    std::uint64_t worker = dispatcher.registerWorker(8);
    std::atomic<bool> batch_done{false};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan, ShardWarmup::Checkpoint, PassMode::PerMechanism,
            [](std::size_t, const SweepResult &) {});
        batch_done.store(true);
    });

    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    // However wide the worker claims to be, a chain travels alone:
    // its shards depend on each other's boundary state.
    EXPECT_TRUE(grant.chain);
    EXPECT_EQ(grant.jobs.size(), 4u);

    // Each shard's window counters are the same however it warms up,
    // so running them independently here must still merge into the
    // pre-expansion cell exactly.
    std::vector<SweepResult> computed;
    for (const SweepJob &job : grant.jobs)
        computed.push_back(runSweepJob(job));
    EXPECT_TRUE(
        dispatcher.completeLease(grant.lease, std::move(computed)));
    batch.join();

    std::vector<SweepResult> direct = engine.run(jobs);
    ASSERT_EQ(results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(results[i].functional, direct[i].functional)
            << "cell " << i;
    dispatcher.unregisterWorker(worker);
}

TEST(Dispatcher, ReplayShardsAreLeasedAsPlainCells)
{
    SweepEngine engine(1);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000;
    Dispatcher dispatcher(engine, options);

    std::vector<SweepJob> jobs =
        functionalGrid({"gcc", "mcf"}, {"rp"}, kSlowRefs);
    ShardPlan plan = expandShards(jobs, 4);

    std::uint64_t worker = dispatcher.registerWorker(8);
    std::atomic<bool> batch_done{false};
    std::vector<SweepResult> results;
    std::thread batch([&] {
        results = dispatcher.runBatch(
            plan, ShardWarmup::Replay, PassMode::PerMechanism,
            [](std::size_t, const SweepResult &) {});
        batch_done.store(true);
    });

    // Under replay warm-up every shard is an independent cell, so a
    // wide worker gets a block of them, not a chain.
    LeaseGrant grant;
    ASSERT_TRUE(leaseSoon(dispatcher, worker, grant, batch_done));
    EXPECT_FALSE(grant.chain);
    EXPECT_GT(grant.jobs.size(), 1u);
    for (const SweepJob &job : grant.jobs)
        EXPECT_TRUE(job.workload.sharded()) << job.workload.label();

    std::vector<SweepResult> computed;
    for (const SweepJob &job : grant.jobs)
        computed.push_back(runSweepJob(job));
    EXPECT_TRUE(
        dispatcher.completeLease(grant.lease, std::move(computed)));
    batch.join();

    std::vector<SweepResult> direct = engine.run(jobs);
    ASSERT_EQ(results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_TRUE(results[i] == direct[i]) << "cell " << i;
    dispatcher.unregisterWorker(worker);
}

/**
 * Differential test of the whole dispatch path against the serial
 * engine: a plan mixing single-pass groups, 8-shard checkpoint
 * chains, the shards of an uncheckpointable mechanism, a timed cell
 * and an explicit `app#k/N` cell runs through runBatch with an
 * in-process worker pulling leases, under both warm-ups and both
 * pass modes.  Every merged SweepResult must equal the oracle's.
 */
TEST(Dispatcher, MixedPlanThroughAWorkerMatchesTheSerialOracle)
{
    registerTestMechanisms();
    constexpr std::uint64_t refs = 60000;
    std::vector<SweepJob> jobs;
    ShardPlan plan;
    auto add = [&](SweepJob job, std::uint32_t shards) {
        ShardPlan part = expandShards({job}, shards);
        plan.jobs.insert(plan.jobs.end(), part.jobs.begin(),
                         part.jobs.end());
        plan.groupSizes.insert(plan.groupSizes.end(),
                               part.groupSizes.begin(),
                               part.groupSizes.end());
        jobs.push_back(std::move(job));
    };
    auto cell = [&](const char *workload, const char *mech) {
        return SweepJob::functional(WorkloadSpec::parse(workload),
                                    MechanismSpec::parse(mech), refs);
    };
    for (const char *mech : {"rp", "DP,256,D", "MP,256,D"})
        add(cell("gcc", mech), 1);
    for (const char *mech : {"DP,256,D", "ASP,256,D"})
        add(cell("mcf", mech), 8);
    add(cell("art", "tnockpt"), 8);
    add(SweepJob::timed(WorkloadSpec::app("swim"),
                        MechanismSpec::parse("DP,256,D"), refs),
        1);
    add(cell("gcc#2/4", "DP,256,D"), 1);
    for (const char *mech : {"rp", "tnockpt"})
        add(cell("vpr", mech), 1);
    std::vector<SweepResult> oracle = SweepEngine(1).run(jobs);

    SweepEngine engine(1);
    DispatcherOptions options;
    options.leaseTimeoutMs = 60000;
    Dispatcher dispatcher(engine, options);
    DispatchWorkerOptions worker_options;
    worker_options.threads = 2;
    DispatchWorker worker(worker_options);
    std::uint64_t id = dispatcher.registerWorker(4);
    std::atomic<bool> stop{false};
    std::thread pulling([&] {
        LeaseGrant grant;
        while (!stop.load()) {
            if (!dispatcher.lease(id, grant)) {
                std::this_thread::sleep_for(
                    std::chrono::microseconds(100));
                continue;
            }
            try {
                dispatcher.completeLease(grant.lease,
                                         worker.runGrant(grant));
            } catch (const std::exception &) {
                dispatcher.failLease(grant.lease);
            }
        }
    });

    std::uint64_t remote = 0;
    for (ShardWarmup warmup :
         {ShardWarmup::Replay, ShardWarmup::Checkpoint}) {
        for (PassMode mode :
             {PassMode::PerMechanism, PassMode::SinglePass}) {
            std::vector<std::size_t> order;
            std::vector<SweepResult> results = dispatcher.runBatch(
                plan, warmup, mode,
                [&](std::size_t i, const SweepResult &) {
                    order.push_back(i);
                });
            ASSERT_EQ(results.size(), oracle.size());
            for (std::size_t i = 0; i < oracle.size(); ++i)
                EXPECT_TRUE(results[i] == oracle[i])
                    << "cell " << i << " (" << oracle[i].workload
                    << ", " << oracle[i].mechanism << ") under "
                    << shardWarmupName(warmup) << ", "
                    << passModeName(mode);
            ASSERT_EQ(order.size(), oracle.size());
            for (std::size_t i = 0; i < order.size(); ++i)
                EXPECT_EQ(order[i], i);
            remote += dispatcher.lastBatchStats().remoteCells;
        }
    }
    stop.store(true);
    pulling.join();
    dispatcher.unregisterWorker(id);
    EXPECT_GT(remote, 0u); // the worker really carried cells
    EXPECT_EQ(dispatcher.counters().remoteFailures, 0u);
}

// ------------------------------------------------ server worker verbs

TEST(DispatchServer, MalformedCellResultDropsOnlyThatWorker)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    OwnedFd sick = rawConnect(server.port());
    OwnedFd healthy = rawConnect(server.port());
    WorkerWelcome sick_id = rawWorkerHello(sick.fd());
    WorkerWelcome healthy_id = rawWorkerHello(healthy.fd());
    EXPECT_NE(sick_id.worker, healthy_id.worker);

    // An empty results array is a protocol violation: the server
    // answers with an error frame and drops that session.
    writeFrame(sick.fd(), "{\"type\":\"cell_result\",\"lease\":1,"
                          "\"results\":[]}");
    JsonValue message;
    std::string type;
    ASSERT_TRUE(readMessage(sick.fd(), message, type));
    EXPECT_EQ(type, "error");
    std::string payload;
    EXPECT_FALSE(readFrame(sick.fd(), payload)); // connection closed

    // The other worker's session is untouched; so are clients.
    writeFrame(healthy.fd(),
               encodeLeaseRequest(healthy_id.worker));
    ASSERT_TRUE(readMessage(healthy.fd(), message, type));
    EXPECT_EQ(type, "lease_idle");
    ServiceClient("127.0.0.1", server.port()).ping();

    // The sick worker was unregistered (poll: teardown is async).
    StatsReply stats;
    for (int i = 0; i < 200; ++i) {
        stats = ServiceClient("127.0.0.1", server.port()).stats();
        if (stats.workers == 1)
            break;
        ::usleep(10 * 1000);
    }
    EXPECT_EQ(stats.workers, 1u);

    healthy.close();
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

TEST(DispatchServer, MaxClientsShedsWithAnErrorFrame)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    options.maxClients = 2;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    // Two idle sessions fill the table; the third is shed with an
    // explanation instead of queueing silently in the backlog.
    OwnedFd first = rawConnect(server.port());
    OwnedFd second = rawConnect(server.port());
    writeFrame(first.fd(), "{\"type\":\"ping\"}");
    writeFrame(second.fd(), "{\"type\":\"ping\"}");
    JsonValue message;
    std::string type;
    ASSERT_TRUE(readMessage(first.fd(), message, type));
    ASSERT_TRUE(readMessage(second.fd(), message, type));

    OwnedFd third = rawConnect(server.port());
    ASSERT_TRUE(readMessage(third.fd(), message, type));
    EXPECT_EQ(type, "error");
    EXPECT_NE(message.at("message").asString().find("capacity"),
              std::string::npos);
    third.close();

    // Freeing a slot lets the next connection through (the accept
    // loop reaps finished sessions on its poll tick).
    first.close();
    second.close();
    for (int i = 0; i < 200; ++i) {
        try {
            ServiceClient("127.0.0.1", server.port()).ping();
            break;
        } catch (const std::exception &) {
            ::usleep(20 * 1000);
        }
    }
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

TEST(DispatchServer, ConcurrentClientsAccountASharedCacheExactly)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 2;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    // Overlapping grids, submitted concurrently: the batch mutex
    // makes lookup+run+fill atomic per batch, so whichever runs
    // second hits exactly the overlap (app:mcf x rp).
    SweepRequest one;
    one.workloads = {"app:gcc", "app:mcf"};
    one.mechanisms = {"rp"};
    one.refs = kRefs;
    SweepRequest two;
    two.workloads = {"app:mcf", "app:swim"};
    two.mechanisms = {"rp"};
    two.refs = kRefs;

    ServiceClient::SweepOutcome out1, out2;
    std::thread client1([&] {
        out1 = ServiceClient("127.0.0.1", server.port()).sweep(one);
    });
    std::thread client2([&] {
        out2 = ServiceClient("127.0.0.1", server.port()).sweep(two);
    });
    client1.join();
    client2.join();

    EXPECT_EQ(out1.done.cells, 2u);
    EXPECT_EQ(out2.done.cells, 2u);
    StatsReply stats =
        ServiceClient("127.0.0.1", server.port()).stats();
    EXPECT_EQ(stats.requests, 2u);
    EXPECT_EQ(stats.cells, 4u);
    EXPECT_EQ(stats.cacheMisses, 3u); // the three unique cells
    EXPECT_EQ(stats.cacheHits, 1u);   // the shared one, second batch

    // Both clients' results are bit-identical to direct runs.
    SweepEngine local(2);
    std::vector<SweepResult> direct1 = local.run(
        SweepRequest::decode(JsonValue::parse(one.encode())).expand());
    std::vector<SweepResult> direct2 = local.run(
        SweepRequest::decode(JsonValue::parse(two.encode())).expand());
    for (std::size_t i = 0; i < direct1.size(); ++i)
        EXPECT_EQ(out1.results[i].functional, direct1[i].functional);
    for (std::size_t i = 0; i < direct2.size(); ++i)
        EXPECT_EQ(out2.results[i].functional, direct2[i].functional);

    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

TEST(DispatchServer, WorkerFleetSweepIsByteIdenticalToLocal)
{
    SweepRequest request;
    request.workloads = {"app:gcc", "app:mcf", "app:art"};
    request.mechanisms = {"rp", "dp"};
    request.refs = kRefs;
    request.shards = 2;

    // Baseline: a 0-worker server.
    ServerOptions base_options;
    base_options.port = 0;
    base_options.threads = 2;
    base_options.cacheDir = makeTempDir();
    SweepServer base(base_options);
    std::thread base_serving([&] { base.serve(); });
    ServiceClient::SweepOutcome plain =
        ServiceClient("127.0.0.1", base.port()).sweep(request);
    ServiceClient("127.0.0.1", base.port()).shutdown();
    base_serving.join();

    // The same sweep through a server with a two-worker fleet.
    ServerOptions fleet_options = base_options;
    fleet_options.cacheDir = makeTempDir();
    SweepServer fleet(fleet_options);
    std::thread fleet_serving([&] { fleet.serve(); });

    DispatchWorkerOptions worker_options;
    worker_options.port = fleet.port();
    worker_options.threads = 2;
    worker_options.cacheDir = fleet_options.cacheDir;
    worker_options.idlePollMs = 1;
    DispatchWorker worker1(worker_options), worker2(worker_options);
    std::thread pulling1([&] { worker1.run(); });
    std::thread pulling2([&] { worker2.run(); });
    StatsReply stats;
    for (int i = 0; i < 500 && stats.workers != 2; ++i) {
        stats = ServiceClient("127.0.0.1", fleet.port()).stats();
        ::usleep(5 * 1000);
    }
    ASSERT_EQ(stats.workers, 2u);

    ServiceClient::SweepOutcome fanned =
        ServiceClient("127.0.0.1", fleet.port()).sweep(request);

    worker1.requestStop();
    worker2.requestStop();
    pulling1.join();
    pulling2.join();
    ServiceClient("127.0.0.1", fleet.port()).shutdown();
    fleet_serving.join();

    // Byte-identity is the dispatch contract: same cells, same
    // counters, same order, whoever simulated them.
    ASSERT_EQ(fanned.results.size(), plain.results.size());
    for (std::size_t i = 0; i < plain.results.size(); ++i) {
        EXPECT_EQ(fanned.results[i].functional,
                  plain.results[i].functional)
            << "cell " << i;
        EXPECT_EQ(fanned.results[i].workload,
                  plain.results[i].workload);
        EXPECT_EQ(fanned.results[i].mechanism,
                  plain.results[i].mechanism);
    }
}

/**
 * A chain leased to a worker that has no --cache-dir must still warm
 * each shard in memory from its predecessor: the batch simulates
 * every reference once, exactly like the unsharded cells, instead of
 * replaying each shard's prefix (~(N+1)/2x the work).
 */
TEST(DispatchServer, LeasedChainWithoutCacheDirSimulatesEachRefOnce)
{
    registerTestMechanisms();
    SweepRequest request;
    request.workloads = {"app:gcc", "app:mcf", "app:swim", "app:art"};
    request.mechanisms = {"tcount"};
    request.refs = 400000;
    request.shards = 8;
    request.shardWarmup = ShardWarmup::Checkpoint;

    std::vector<SweepJob> cells =
        SweepRequest::decode(JsonValue::parse(request.encode()))
            .expand();
    gCountedMisses.store(0);
    std::vector<SweepResult> direct = SweepEngine(1).run(cells);
    std::uint64_t unsharded = gCountedMisses.exchange(0);
    ASSERT_GT(unsharded, 0u);

    // Neither side has a store: no boundary state can come from disk.
    ServerOptions options;
    options.port = 0;
    options.threads = 1;
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });
    DispatchWorkerOptions worker_options;
    worker_options.port = server.port();
    worker_options.threads = 1;
    worker_options.idlePollMs = 1;
    DispatchWorker worker(worker_options);
    std::thread pulling([&] { worker.run(); });
    StatsReply stats;
    for (int i = 0; i < 500 && stats.workers != 1; ++i) {
        stats = ServiceClient("127.0.0.1", server.port()).stats();
        ::usleep(5 * 1000);
    }
    ASSERT_EQ(stats.workers, 1u);

    ServiceClient::SweepOutcome out =
        ServiceClient("127.0.0.1", server.port()).sweep(request);
    worker.requestStop();
    pulling.join();
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();

    EXPECT_GT(worker.cellsCompleted(), 0u); // a chain was leased
    EXPECT_EQ(gCountedMisses.load(), unsharded);
    ASSERT_EQ(out.results.size(), direct.size());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(out.results[i].functional, direct[i].functional)
            << "cell " << i;
}

TEST(DispatchServer, WorkerVanishingMidLeaseNeverLosesTheBatch)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 1; // slow server: the worker gets its grant
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    SweepRequest request;
    request.workloads = {"app:gcc", "app:mcf", "app:swim", "app:art"};
    request.mechanisms = {"rp", "dp"};
    request.refs = 60000;

    std::atomic<bool> sweep_done{false};
    std::atomic<bool> got_grant{false};
    // A worker that takes one lease and dies without answering it.
    std::thread deserter([&] {
        OwnedFd fd = rawConnect(server.port());
        WorkerWelcome welcome = rawWorkerHello(fd.fd());
        JsonValue message;
        std::string type;
        while (!sweep_done.load()) {
            writeFrame(fd.fd(), encodeLeaseRequest(welcome.worker));
            if (!readMessage(fd.fd(), message, type))
                return;
            if (type == "lease_grant") {
                got_grant.store(true);
                return; // vanish with the lease — an abrupt close
            }
            ::usleep(2 * 1000);
        }
    });

    ServiceClient::SweepOutcome out =
        ServiceClient("127.0.0.1", server.port()).sweep(request);
    sweep_done.store(true);
    deserter.join();

    EXPECT_EQ(out.done.cells, 8u);
    SweepEngine local(1);
    std::vector<SweepResult> direct = local.run(
        SweepRequest::decode(JsonValue::parse(request.encode()))
            .expand());
    for (std::size_t i = 0; i < direct.size(); ++i)
        EXPECT_EQ(out.results[i].functional, direct[i].functional)
            << "cell " << i;

    StatsReply stats =
        ServiceClient("127.0.0.1", server.port()).stats();
    if (got_grant.load()) {
        EXPECT_GE(stats.leaseReclaims, 1u);
    }
    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

// ------------------------------------------------ disk-store eviction

TEST(StoreEviction, TtlSweepRemovesOnlyStaleFiles)
{
    std::string dir = makeTempDir();
    writeBytes(dir + "/old", 100);
    writeBytes(dir + "/fresh", 100);
    ageFile(dir + "/old", 3600);

    EvictStats swept = evictStaleStoreFiles({dir}, 0, 600);
    EXPECT_EQ(swept.files, 1u);
    EXPECT_EQ(swept.bytes, 100u);
    EXPECT_FALSE(fileExists(dir + "/old"));
    EXPECT_TRUE(fileExists(dir + "/fresh"));
}

TEST(StoreEviction, BudgetSweepIsOldestFirstAcrossDirsTogether)
{
    // The budget is shared across the cell and checkpoint stores, so
    // the sweep must interleave both by age, not clear one dir first.
    std::string cells = makeTempDir();
    std::string checkpoints = makeTempDir();
    writeBytes(cells + "/a", 400);
    writeBytes(checkpoints + "/b", 400);
    writeBytes(cells + "/c", 400);
    writeBytes(checkpoints + "/d", 400);
    ageFile(cells + "/a", 400);
    ageFile(checkpoints + "/b", 300);
    ageFile(cells + "/c", 200);
    ageFile(checkpoints + "/d", 100);

    EvictStats swept =
        evictStaleStoreFiles({cells, checkpoints}, 800, 0);
    EXPECT_EQ(swept.files, 2u);
    EXPECT_EQ(swept.bytes, 800u);
    EXPECT_FALSE(fileExists(cells + "/a"));      // oldest
    EXPECT_FALSE(fileExists(checkpoints + "/b")); // second oldest
    EXPECT_TRUE(fileExists(cells + "/c"));
    EXPECT_TRUE(fileExists(checkpoints + "/d"));
}

TEST(StoreEviction, SkipsInFlightTempFilesAndHonoursTouch)
{
    std::string dir = makeTempDir();
    // A writer's in-flight temp file must never be swept out from
    // under its rename.
    writeBytes(dir + "/.tmp.partial", 4096);
    ageFile(dir + "/.tmp.partial", 7200);
    // touchFile() is what the stores call on a disk read: it makes an
    // old entry young again, so the LRU keeps hot entries resident.
    writeBytes(dir + "/read-recently", 100);
    ageFile(dir + "/read-recently", 7200);
    touchFile(dir + "/read-recently");

    EvictStats swept = evictStaleStoreFiles({dir}, 0, 600);
    EXPECT_EQ(swept.files, 0u);
    EXPECT_TRUE(fileExists(dir + "/.tmp.partial"));
    EXPECT_TRUE(fileExists(dir + "/read-recently"));
}

TEST(StoreEviction, ServerEnforcesTheBudgetAroundSweeps)
{
    ServerOptions options;
    options.port = 0;
    options.threads = 2;
    options.cacheDir = makeTempDir();
    options.storeMaxBytes = 1; // evict (almost) everything, always
    SweepServer server(options);
    std::thread serving([&] { server.serve(); });

    SweepRequest request;
    request.workloads = {"app:gcc"};
    request.mechanisms = {"rp", "dp"};
    request.refs = kRefs;
    ServiceClient("127.0.0.1", server.port()).sweep(request);

    StatsReply stats =
        ServiceClient("127.0.0.1", server.port()).stats();
    EXPECT_GT(stats.storeEvictedFiles, 0u);
    EXPECT_GT(stats.storeEvictedBytes, 0u);

    // In-memory entries still answer; only the disk copies went.
    ServiceClient::SweepOutcome again =
        ServiceClient("127.0.0.1", server.port()).sweep(request);
    EXPECT_EQ(again.done.cacheHits, 2u);

    ServiceClient("127.0.0.1", server.port()).shutdown();
    serving.join();
}

} // namespace
} // namespace tlbpf
