/**
 * @file
 * The loop both batch workloads share: one closed-loop client that
 * submits a grid batch to an nproc-thread SweepEngine, then a few
 * single-cell probe requests, round after round.  The rounds of one
 * pass are generated at set-up from the seed and replayed pass after
 * pass, so every request is timed several times; a seeded sample of
 * every round's cells is kept for the oracle.
 */

#ifndef PERFBENCH_BATCH_WORKLOAD_HH
#define PERFBENCH_BATCH_WORKLOAD_HH

#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"

namespace perfbench
{

class BatchWorkload : public Workload
{
  public:
    explicit BatchWorkload(const Options &options);

    void setup() override;
    void teardown() override;
    Measured measure(double seconds, Tracer *tracer) override;
    void check(Report &report) override;

  protected:
    /** One round: a grid batch and the probes that follow it. */
    struct Round
    {
        Batch grid;
        std::vector<tlbpf::SweepJob> probes;
        /** Identifies the grid; rounds that carry the same grid share it. */
        std::size_t gridKey = 0;
    };

    /**
     * Fill _rounds, one pass (and any generated files), from the
     * seed.  A round carries at most 255 probes (sample keys).
     */
    virtual void generate() = 0;

    /** Print every round's grid and probes, one line per cell. */
    void describeRounds() const;

    Options _options;
    Strata _strata;
    std::vector<Round> _rounds;

  private:
    /**
     * Oracle bookkeeping for one answered request: a repeat of @p key
     * is compared cell by cell with its first answer, and up to
     * @p checks seeded cells not checked before are queued for
     * runSweepJob.
     */
    void keep(std::uint64_t key, const std::vector<tlbpf::SweepJob> &jobs,
              const std::vector<tlbpf::SweepResult> &answers,
              std::size_t checks);

    std::unique_ptr<tlbpf::SweepEngine> _engine;
    std::size_t _next = 0;
    tlbpf::Rng _sampleRng;
    /** (job, answer) pairs the oracle recomputes. */
    std::vector<std::pair<tlbpf::SweepJob, tlbpf::SweepResult>> _checks;
    /** The first answer to every request key. */
    std::map<std::uint64_t, std::vector<tlbpf::SweepResult>> _first;
    /** (request key, cell) pairs already queued for runSweepJob. */
    std::set<std::pair<std::uint64_t, std::size_t>> _checked;
    std::vector<std::string> _errors;
};

} // namespace perfbench

#endif // PERFBENCH_BATCH_WORKLOAD_HH
