/**
 * @file
 * What every workload shares: command-line options, the metric
 * report and its JSON line, seeded input helpers (miss-rate strata,
 * mechanism families, generated traces), batches and the workload
 * interface main.cc runs.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "host.hh"
#include "run/sweep_engine.hh"
#include "tracer.hh"
#include "util/random.hh"

namespace perfbench
{

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Multiplies every reference budget (the smoke test uses ~0.02). */
    double scale = 1.0;
    /** Scratch directory for generated traces, caches and span files. */
    std::string workDir = ".";
};

/** A reference budget times --scale, never below 1000. */
std::uint64_t scaledRefs(const Options &options, std::uint64_t refs);

/** One printed metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string note; ///< printed beside the value, not in the JSON
};

/** Metrics, correctness verdict and attempt counts of one run. */
class Report
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit, const std::string &note = "");
    /** Record an oracle mismatch or failed operation. */
    void fail(const std::string &why);

    bool correct() const { return _failures.empty(); }
    const std::vector<Metric> &metrics() const { return _metrics; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** "metric <name> <value> <unit> [note]" lines, failed_share last. */
    void print(const std::string &prefix = "") const;
    /** The "oracle ok|FAILED" line. */
    void printVerdict() const;
    /** The JSON result object (the last stdout line). */
    std::string json() const;

  private:
    std::vector<Metric> _metrics;
    std::vector<std::string> _failures;
};

/** A mechanism family the per-layer metrics break out, at paper parameters. */
struct Family
{
    const char *key;    ///< metric suffix: dp, rp, mp, asp, sp
    const char *legend; ///< MechanismSpec legend
};

/** DP, RP, MP, ASP and SP, in that order. */
const std::vector<Family> &families();

/** Parsed MechanismSpec of every family, in families() order. */
std::vector<tlbpf::MechanismSpec> familySpecs();

/**
 * Registry apps split by their no-prefetch TLB miss rate: low < 2%,
 * mid 2-9%, high >= 9% (apsi, mcf and galgel are typical of the
 * three).
 */
struct Strata
{
    std::vector<std::string> low, mid, high;
    /** No-prefetch miss rate of every app, as classified. */
    std::map<std::string, double> missRate;

    std::vector<std::string> all() const;

    /**
     * The app every batch round leads with: the first low-miss app in
     * registry (figure) order, or the first app when none is low-miss.
     */
    const std::string &lead() const;

    /**
     * Up to @p k apps of @p apps, one seeded pick from each of k equal
     * bins of them sorted by miss rate, so the sample spans the same
     * range of miss rates, and so of cost, whatever the seed.
     */
    std::vector<std::string> spread(tlbpf::Rng &rng,
                                    std::vector<std::string> apps,
                                    std::size_t k) const;

    /**
     * spread() without the seed: the middle app of each bin.  For
     * samples whose cost and memory must not depend on the seed.
     */
    std::vector<std::string> binCentres(std::vector<std::string> apps,
                                        std::size_t k) const;

    /** Print the "input strata ..." line. */
    void describe() const;
};

/**
 * Classify every app over kDefaultBenchRefs (times --scale)
 * references, the budget the figure tools and every grid here use.
 */
Strata classifyApps(const Options &options);

/** Up to @p k distinct items of @p items, in seeded order. */
std::vector<std::string> pick(tlbpf::Rng &rng,
                              std::vector<std::string> items,
                              std::size_t k);

/** One seeded item of @p items. */
template <typename T>
const T &
pickOne(tlbpf::Rng &rng, const std::vector<T> &items)
{
    return items[rng.nextBelow(items.size())];
}

/**
 * Seeded draws that visit every item once per pass, reshuffling
 * between passes.  Over many draws each item appears equally often
 * whatever the seed, so the seed changes order and pairings but not
 * the mix, and runs with different seeds do comparable work.
 */
template <typename T>
class Deck
{
  public:
    Deck(std::vector<T> items, tlbpf::Rng &rng)
        : _items(std::move(items)), _rng(rng), _next(_items.size())
    {
    }

    const T &
    draw()
    {
        if (_next == _items.size()) {
            for (std::size_t i = _items.size(); i > 1; --i)
                std::swap(_items[i - 1], _items[_rng.nextBelow(i)]);
            _next = 0;
        }
        return _items[_next++];
    }

  private:
    std::vector<T> _items;
    tlbpf::Rng &_rng;
    std::size_t _next;
};

/** Generators writeSeededTrace() can use. */
constexpr unsigned kTraceKinds = 4;

/**
 * Write a @p refs-reference trace to @p path from public generator
 * @p kind (mod kTraceKinds: distance walk, history loop, Zipf mix,
 * blocked scan), its parameters drawn from @p rng.  Returns the
 * generator's description.
 */
std::string writeSeededTrace(const std::string &path, tlbpf::Rng &rng,
                             std::uint64_t refs, unsigned kind);

/** Jobs plus a per-job shard count (1 = whole cell) and a pass mode. */
struct Batch
{
    std::vector<tlbpf::SweepJob> jobs;
    std::vector<std::uint32_t> shards; ///< empty: every job whole
    tlbpf::PassMode mode = tlbpf::PassMode::SinglePass;
};

/**
 * Run @p batch on @p engine: jobs with a shard count > 1 become
 * checkpoint-chained shard groups (SweepEngine::runSharded), the rest
 * run whole; results come back one per job, in order.
 */
std::vector<tlbpf::SweepResult>
runBatch(tlbpf::SweepEngine &engine, const Batch &batch,
         const tlbpf::SweepEngine::ResultCallback &on_result = {});

/** Counter-for-counter equality of two cells (both models). */
bool sameCounters(const tlbpf::SweepResult &a,
                  const tlbpf::SweepResult &b);

/** Short "workload|mechanism|refs" name of a job for messages. */
std::string jobName(const tlbpf::SweepJob &job);

/**
 * What one measured window produced.  A workload's seeded schedule is
 * a fixed pass of distinct requests that the window replays from the
 * start as often as it has time for; every timed request is a Sample
 * keyed by its place in the pass, and the end-to-end metrics take each
 * request at its best repeat (bestOfRepeats).
 */
struct Measured
{
    HostWindow host;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Sample> samples;
};

/** CPU seconds used by this process since @p cpu0 (processCpuSeconds). */
inline double
cpuSince(double cpu0)
{
    return processCpuSeconds() - cpu0;
}

/** Inputs the layer ladder runs through growing API slices. */
struct LadderInputs
{
    std::vector<std::string> apps; ///< one app per miss-rate stratum
    std::string mix;               ///< a mix: spec
    std::string tracePath;         ///< a .tpf file; empty = generate
    Batch batch;                   ///< the workload's own grid
};

/**
 * Ladder inputs common to every workload: one seeded app per stratum
 * and a mix of the first and last of them.
 */
LadderInputs ladderInputsFor(const Options &options, const Strata &strata);

/** A benchmark workload as main.cc runs it. */
class Workload
{
  public:
    Workload() = default;
    Workload(const Workload &) = delete;
    Workload &operator=(const Workload &) = delete;
    virtual ~Workload() = default;

    /**
     * Generate the inputs and start what serves them (engine,
     * server, worker), replacing anything a previous call built.
     * main.cc times this call.
     */
    virtual void setup() = 0;

    /** Print the resolved input specs (after the last setup). */
    virtual void describeInputs() const = 0;

    /**
     * Run the closed loop for @p seconds; spans go to @p tracer when
     * it is not null.  Results kept for check() are stored inside.
     */
    virtual Measured measure(double seconds, Tracer *tracer) = 0;

    /** Oracle, outside the timed window: mismatches go to @p report. */
    virtual void check(Report &report) = 0;

    /** The ladder's inputs, drawn from this workload's own. */
    virtual LadderInputs ladderInputs() const = 0;

    /**
     * Per-layer service metrics from the measured windows; false when
     * the workload never talks to a server (the ladder's service
     * rung then supplies them).
     */
    virtual bool serviceLayer(Report &) { return false; }

    /** Stop what setup() started. */
    virtual void teardown() {}
};

std::unique_ptr<Workload> makePaperGrid(const Options &options);
std::unique_ptr<Workload> makeCellSkew(const Options &options);
std::unique_ptr<Workload> makeServiceMix(const Options &options);

/** The traced run's layer ladder; per-layer metrics go to @p report. */
void runLadder(const Options &options, Workload &workload,
               Tracer &tracer, Report &report);

/** Milliseconds between two nowNs() readings. */
inline double
msBetween(std::int64_t a, std::int64_t b)
{
    return static_cast<double>(b - a) * 1e-6;
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
