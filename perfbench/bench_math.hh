/**
 * @file
 * The benchmark's own arithmetic: order statistics, the tail
 * percentile rule, span self time and ladder rung differences.  Pure
 * functions over plain values, so tests/test_math.cc can pin every
 * rule down without running a simulation.
 */

#ifndef PERFBENCH_BENCH_MATH_HH
#define PERFBENCH_BENCH_MATH_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace perfbench
{

/** Median of @p values (mean of the middle pair); 0 when empty. */
inline double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/**
 * The tail statistic of a latency sample: the highest percentile that
 * still has at least @p beyond samples above it.  With n sorted
 * samples that is the (beyond+1)-th largest value, at percentile
 * 100 * (n - beyond - 1) / (n - 1) (the same interpolation rule
 * median() uses: percentile 0 is the minimum, 100 the maximum).  The
 * rule is continuous in n, so runs of slightly different length do
 * not jump between fixed percentiles.  With n <= beyond no percentile
 * qualifies; the maximum is reported and `qualified` is false.
 */
struct TailStat
{
    double value = 0.0;      ///< the latency at that percentile
    double percentile = 0.0; ///< in [0, 100]
    std::size_t samples = 0; ///< n
    std::size_t beyond = 0;  ///< samples strictly above the rank
    bool qualified = false;  ///< false: fewer than beyond+1 samples
};

inline TailStat
tailStat(std::vector<double> values, std::size_t beyond = 10)
{
    TailStat tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    std::size_t n = values.size();
    if (n <= beyond) {
        tail.value = values.back();
        tail.percentile = 100.0;
        tail.beyond = 0;
        return tail;
    }
    std::size_t rank = n - 1 - beyond;
    tail.value = values[rank];
    tail.percentile =
        n > 1 ? 100.0 * static_cast<double>(rank) /
                    static_cast<double>(n - 1)
              : 100.0;
    tail.beyond = beyond;
    tail.qualified = true;
    return tail;
}

/** A half-open time interval [begin, end) in nanoseconds. */
struct Interval
{
    std::int64_t begin = 0;
    std::int64_t end = 0;
};

/**
 * Self time of a span: its duration minus the part of it that its
 * children cover.  Children are clipped to the parent and their
 * union is taken, so overlapping children (a parent waiting on
 * several threads) are not subtracted twice and a child running past
 * its parent's end removes only the overlap.
 */
inline std::int64_t
selfTime(Interval parent, std::vector<Interval> children)
{
    std::int64_t total = std::max<std::int64_t>(0, parent.end -
                                                       parent.begin);
    for (Interval &child : children) {
        child.begin = std::max(child.begin, parent.begin);
        child.end = std::min(child.end, parent.end);
    }
    std::sort(children.begin(), children.end(),
              [](const Interval &a, const Interval &b) {
                  return a.begin < b.begin;
              });
    std::int64_t covered = 0;
    std::int64_t cursor = parent.begin;
    for (const Interval &child : children) {
        if (child.end <= child.begin)
            continue;
        std::int64_t from = std::max(child.begin, cursor);
        if (child.end > from) {
            covered += child.end - from;
            cursor = child.end;
        }
    }
    return total - covered;
}

/**
 * One rung of the layer ladder: the self time it spent and the work
 * it did, in whichever unit the rung counts (references, misses).
 */
struct Rung
{
    double selfNs = 0.0;
    double work = 0.0;

    /** ns per unit of work; 0 when the rung did none. */
    double perUnit() const { return work > 0 ? selfNs / work : 0.0; }
};

/**
 * Cost the upper rung adds over the lower one, per unit of @p work:
 * (upper.selfNs - lower.selfNs) / work.  Used for the mechanism
 * rungs, whose extra cost over the `none` simulator is charged per
 * TLB miss, the only event a mechanism sees.  Negative when noise
 * exceeds the difference; it is reported as measured.
 */
inline double
rungDelta(const Rung &upper, const Rung &lower, double work)
{
    return work > 0 ? (upper.selfNs - lower.selfNs) / work : 0.0;
}

/** One timed request of a measured window. */
struct Sample
{
    enum class Kind
    {
        Grid,
        Probe,
        Other
    };
    Kind kind = Kind::Grid;
    /** The request's place in the seeded schedule; repeats share it. */
    std::uint64_t key = 0;
    /** Its time, CPU and work add to the throughput totals. */
    bool counted = true;
    double ms = 0.0;          ///< latency
    double firstCellMs = 0.0; ///< grid requests: to the first cell
    double cpuS = 0.0;        ///< process CPU seconds while it ran
    std::uint64_t refs = 0;   ///< references simulated
    std::uint64_t cells = 0;  ///< cells answered
    unsigned repeats = 1;     ///< samples bestOfRepeats() merged
};

/**
 * Best of repeats: each distinct key once, in first-seen order, with
 * the smallest latency, first-cell time and CPU time any of its
 * repeats measured (each minimised on its own).  Noise on a shared
 * host only ever adds time to a request, so its fastest repeat is the
 * closest to the program's own cost; a slower program slows every
 * repeat, the fastest included.  Work (refs, cells) is the first
 * repeat's: repeats of a key do the same work.
 */
inline std::vector<Sample>
bestOfRepeats(const std::vector<Sample> &samples)
{
    std::vector<Sample> best;
    std::vector<std::pair<std::uint64_t, std::size_t>> index;
    for (const Sample &s : samples) {
        auto it = std::lower_bound(
            index.begin(), index.end(), std::pair{s.key, std::size_t{0}},
            [](const auto &a, const auto &b) { return a.first < b.first; });
        if (it == index.end() || it->first != s.key) {
            index.insert(it, {s.key, best.size()});
            best.push_back(s);
            best.back().repeats = 1;
            continue;
        }
        Sample &b = best[it->second];
        b.ms = std::min(b.ms, s.ms);
        b.firstCellMs = std::min(b.firstCellMs, s.firstCellMs);
        b.cpuS = std::min(b.cpuS, s.cpuS);
        ++b.repeats;
    }
    return best;
}

/** a / b, or 0 when b is 0 (ratios over counters that may be 0). */
inline double
ratio(double a, double b)
{
    return b != 0.0 ? a / b : 0.0;
}

} // namespace perfbench

#endif // PERFBENCH_BENCH_MATH_HH
