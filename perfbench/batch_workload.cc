#include "batch_workload.hh"

#include <cstdio>
#include <exception>

using namespace tlbpf;

namespace perfbench
{

namespace
{
/** Cells of every grid repeat the oracle recomputes (not yet checked). */
constexpr std::size_t kChecksPerGrid = 2;
} // namespace

BatchWorkload::BatchWorkload(const Options &options)
    : _options(options), _sampleRng(options.seed ^ 0x6f7261636c65ull)
{
}

void
BatchWorkload::setup()
{
    generate();
    _engine = std::make_unique<SweepEngine>(hostCpus());
}

void
BatchWorkload::teardown()
{
    _engine.reset();
    _rounds.clear();
    _first.clear();
    _checked.clear();
}

void
BatchWorkload::keep(std::uint64_t key, const std::vector<SweepJob> &jobs,
                    const std::vector<SweepResult> &answers,
                    std::size_t checks)
{
    auto [it, fresh] = _first.emplace(key, answers);
    if (!fresh) {
        // A repeat must answer exactly as the first time did.
        for (std::size_t i = 0; i < answers.size(); ++i)
            if (!sameCounters(answers[i], it->second[i]) ||
                answers[i].workload != it->second[i].workload ||
                answers[i].mechanism != it->second[i].mechanism)
                _errors.push_back("repeat of cell " + jobName(jobs[i]) +
                                  " answered differently");
    }
    for (std::size_t k = 0; k < checks; ++k) {
        std::size_t i = _sampleRng.nextBelow(answers.size());
        if (_checked.insert({key, i}).second)
            _checks.emplace_back(jobs[i], answers[i]);
    }
}

Measured
BatchWorkload::measure(double seconds, Tracer *tracer)
{
    Measured m;
    HostSample start = HostSample::take();
    std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(seconds * 1e9);
    while (nowNs() < deadline) {
        std::size_t r = _next++ % _rounds.size();
        const Round &round = _rounds[r];
        std::size_t n = round.grid.jobs.size();
        m.attempted += n;
        Sample grid;
        grid.key = round.gridKey << 8;
        double cpu0 = processCpuSeconds();
        std::int64_t t0 = nowNs();
        std::int64_t first = t0;
        std::vector<SweepResult> results;
        try {
            ScopedSpan span(tracer, "grid", _next);
            results = runBatch(*_engine, round.grid,
                               [&](std::size_t i, const SweepResult &) {
                                   if (i == 0)
                                       first = nowNs();
                               });
        } catch (const std::exception &e) {
            m.failed += n;
            _errors.push_back(std::string("grid failed: ") + e.what());
            continue;
        }
        grid.ms = msBetween(t0, nowNs());
        grid.cpuS = cpuSince(cpu0);
        grid.firstCellMs = msBetween(t0, first);
        grid.cells = n;
        for (const SweepResult &result : results)
            grid.refs += result.functional.refs;
        m.samples.push_back(grid);
        keep(grid.key, round.grid.jobs, results, n ? kChecksPerGrid : 0);

        for (std::size_t p = 0; p < round.probes.size(); ++p) {
            const SweepJob &probe = round.probes[p];
            ++m.attempted;
            Sample sample;
            sample.kind = Sample::Kind::Probe;
            sample.key = (r << 8) + 1 + p;
            double p_cpu0 = processCpuSeconds();
            std::int64_t p0 = nowNs();
            SweepResult answer;
            try {
                ScopedSpan span(tracer, "probe", _next);
                answer = _engine->run({probe}, PassMode::PerMechanism)[0];
            } catch (const std::exception &e) {
                ++m.failed;
                _errors.push_back(std::string("probe failed: ") +
                                  e.what());
                continue;
            }
            sample.ms = msBetween(p0, nowNs());
            sample.cpuS = cpuSince(p_cpu0);
            sample.cells = 1;
            sample.refs = answer.functional.refs;
            m.samples.push_back(sample);
            keep(sample.key, {probe}, {answer}, 1);
        }
    }
    m.host = HostWindow::between(start, HostSample::take());
    return m;
}

void
BatchWorkload::check(Report &report)
{
    for (const std::string &error : _errors)
        report.fail(error);
    for (const auto &[job, answer] : _checks) {
        SweepResult expect = runSweepJob(job);
        if (!sameCounters(expect, answer) ||
            answer.workload != job.workload.label() ||
            answer.mechanism != job.spec.label())
            report.fail("cell " + jobName(job) +
                        " differs from runSweepJob");
    }
    std::printf("oracle: %zu sampled cells recomputed with runSweepJob\n",
                _checks.size());
    _checks.clear();
    _errors.clear();
}

void
BatchWorkload::describeRounds() const
{
    // One line per round and kind; cells are space-separated
    // workload|mechanism|refs triples (plus "*N" for N-shard chains).
    for (std::size_t r = 0; r < _rounds.size(); ++r) {
        const Round &round = _rounds[r];
        std::string grid, probes;
        for (std::size_t i = 0; i < round.grid.jobs.size(); ++i) {
            grid += ' ';
            grid += jobName(round.grid.jobs[i]);
            if (!round.grid.shards.empty() && round.grid.shards[i] > 1) {
                grid += '*';
                grid += std::to_string(round.grid.shards[i]);
            }
        }
        for (const SweepJob &probe : round.probes) {
            probes += ' ';
            probes += jobName(probe);
        }
        std::printf("input round %zu grid%s\n", r, grid.c_str());
        std::printf("input round %zu probes%s\n", r, probes.c_str());
    }
}

} // namespace perfbench
