/**
 * @file
 * Tests of the benchmark's own arithmetic: tail-percentile selection,
 * best-of-repeats, span self time, ladder rung differences and the
 * tracer's parent links.  Self-contained (no test framework) so the
 * benchmark package needs nothing beyond a compiler.
 */

#include <cmath>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_math.hh"
#include "tracer.hh"

using namespace perfbench;

namespace
{

int failures = 0;

#define EXPECT(cond)                                                      \
    do {                                                                  \
        if (!(cond)) {                                                    \
            std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__,        \
                         __LINE__, #cond);                                \
            ++failures;                                                   \
        }                                                                 \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

std::vector<double>
ramp(std::size_t n)
{
    // n distinct values, shuffled so sorting is exercised.
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i)
        v.push_back(static_cast<double>((i * 7919) % n));
    return v;
}

void
testMedian()
{
    EXPECT(near(median({}), 0.0));
    EXPECT(near(median({3, 1, 2}), 2.0));
    EXPECT(near(median({4, 1, 3, 2}), 2.5));
}

void
testTail()
{
    // 100 samples 0..99: the highest percentile with 10 samples
    // beyond it is the 11th largest, 89, at p89.9.
    TailStat t = tailStat(ramp(100));
    EXPECT(t.qualified);
    EXPECT(near(t.value, 89.0));
    EXPECT(t.beyond == 10 && t.samples == 100);
    EXPECT(near(t.percentile, 100.0 * 89.0 / 99.0));
    std::size_t above = 0;
    for (double v : ramp(100))
        above += v > t.value;
    EXPECT(above == 10);

    // 1000 samples: 10 beyond is the p99 neighbourhood.
    TailStat big = tailStat(ramp(1000));
    EXPECT(near(big.value, 989.0));
    EXPECT(big.percentile > 98.9 && big.percentile < 99.1);

    // Eleven samples: only the minimum has ten beyond it.
    TailStat eleven = tailStat(ramp(11));
    EXPECT(eleven.qualified && near(eleven.value, 0.0) &&
           near(eleven.percentile, 0.0));

    // Ten or fewer: nothing qualifies; the maximum is reported.
    TailStat ten = tailStat(ramp(10));
    EXPECT(!ten.qualified && near(ten.value, 9.0) && ten.beyond == 0);
    TailStat none = tailStat({});
    EXPECT(!none.qualified && none.samples == 0 && near(none.value, 0.0));

    // A different minimum sample count.
    TailStat five = tailStat(ramp(20), 5);
    EXPECT(five.qualified && near(five.value, 14.0));
}

void
testSelfTime()
{
    EXPECT(selfTime({0, 100}, {}) == 100);
    // Disjoint children are both subtracted.
    EXPECT(selfTime({0, 100}, {{10, 20}, {50, 80}}) == 60);
    // Overlapping children count once (their union).
    EXPECT(selfTime({0, 100}, {{10, 40}, {30, 60}}) == 50);
    // Nested children count once.
    EXPECT(selfTime({0, 100}, {{10, 90}, {20, 30}}) == 20);
    // A child past the parent's end removes only the overlap.
    EXPECT(selfTime({0, 100}, {{90, 150}}) == 90);
    // A child before the parent removes nothing.
    EXPECT(selfTime({100, 200}, {{0, 50}}) == 100);
    // Unsorted input.
    EXPECT(selfTime({0, 100}, {{70, 80}, {0, 10}}) == 80);
    // Children covering everything leave zero, never negative.
    EXPECT(selfTime({0, 100}, {{0, 60}, {40, 100}}) == 0);
}

void
testRungs()
{
    Rung none{1000.0, 100.0};
    Rung dp{1600.0, 100.0};
    EXPECT(near(none.perUnit(), 10.0));
    EXPECT(near(Rung{}.perUnit(), 0.0));
    // DP's own cost: 600 ns over 20 misses.
    EXPECT(near(rungDelta(dp, none, 20.0), 30.0));
    // Noise can make a delta negative; it is reported, not clamped.
    EXPECT(near(rungDelta(none, dp, 20.0), -30.0));
    EXPECT(near(rungDelta(dp, none, 0.0), 0.0));
    EXPECT(near(ratio(1.0, 0.0), 0.0));
    EXPECT(near(ratio(3.0, 4.0), 0.75));
}

Sample
timed(std::uint64_t key, double ms, double cpu_s, double first_ms = 0.0)
{
    Sample s;
    s.key = key;
    s.ms = ms;
    s.cpuS = cpu_s;
    s.firstCellMs = first_ms;
    s.refs = 1000 * key;
    s.cells = key;
    return s;
}

void
testBestOfRepeats()
{
    EXPECT(bestOfRepeats({}).empty());
    // Keys in first-seen order, each once, with its repeat count.
    std::vector<Sample> best = bestOfRepeats(
        {timed(7, 30, 0.9, 5), timed(2, 10, 0.2), timed(7, 20, 1.1, 9),
         timed(7, 25, 0.7, 4), timed(2, 12, 0.1)});
    EXPECT(best.size() == 2);
    EXPECT(best[0].key == 7 && best[1].key == 2);
    EXPECT(best[0].repeats == 3 && best[1].repeats == 2);
    // Each time is minimised on its own: the fastest latency, first
    // cell and CPU time may come from different repeats.
    EXPECT(near(best[0].ms, 20.0));
    EXPECT(near(best[0].firstCellMs, 4.0));
    EXPECT(near(best[0].cpuS, 0.7));
    EXPECT(near(best[1].ms, 10.0) && near(best[1].cpuS, 0.1));
    // Work is a request's own, never summed over its repeats.
    EXPECT(best[0].refs == 7000 && best[0].cells == 7);
    // Kind and the counted flag come from the first repeat.
    Sample probe = timed(3, 5, 0.1);
    probe.kind = Sample::Kind::Probe;
    probe.counted = false;
    std::vector<Sample> one = bestOfRepeats({probe, timed(3, 4, 0.2)});
    EXPECT(one.size() == 1 && one[0].kind == Sample::Kind::Probe &&
           !one[0].counted && near(one[0].ms, 4.0));
}

void
testTracer()
{
    Tracer tracer;
    std::uint64_t parent_id, child_id, sibling_id;
    {
        ScopedSpan parent(&tracer, "parent", 7);
        parent_id = parent.id();
        {
            ScopedSpan child(&tracer, "child");
            child_id = child.id();
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        ScopedSpan sibling(&tracer, "sibling");
        sibling_id = sibling.id();
    }
    EXPECT(tracer.size() == 3);
    // Self time is the parent minus both children, exactly.
    EXPECT(tracer.selfNs(parent_id) ==
           tracer.durationNs(parent_id) - tracer.durationNs(child_id) -
               tracer.durationNs(sibling_id));
    EXPECT(tracer.selfNs(child_id) == tracer.durationNs(child_id));
    EXPECT(tracer.durationNs(child_id) >= 2'000'000);

    // A span opened on another thread is not a child of this one.
    std::uint64_t outer_id, remote_id = 0;
    {
        ScopedSpan outer(&tracer, "outer");
        outer_id = outer.id();
        std::thread([&] {
            ScopedSpan remote(&tracer, "remote");
            remote_id = remote.id();
        }).join();
    }
    EXPECT(remote_id != 0);
    EXPECT(tracer.selfNs(outer_id) == tracer.durationNs(outer_id));

    // A null tracer records nothing and costs nothing.
    ScopedSpan off(nullptr, "off");
    EXPECT(off.id() == 0);
}

} // namespace

int
main()
{
    testMedian();
    testTail();
    testSelfTime();
    testRungs();
    testBestOfRepeats();
    testTracer();
    if (failures) {
        std::fprintf(stderr, "%d expectation(s) failed\n", failures);
        return 1;
    }
    std::printf("perfbench math: all expectations hold\n");
    return 0;
}
