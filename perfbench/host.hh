/**
 * @file
 * Noise accounting: what the host did while a window was measured.
 * Wall time alone cannot tell a slower program from a busier host, so
 * every measured window also records the process CPU time, the CPU
 * time of each of its threads (/proc/self/task/<tid>/stat) and the
 * host's steal-time delta (/proc/stat).  A run inflated by steal is
 * then visible as such instead of reading as a regression.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <cstdint>
#include <map>
#include <string>

namespace perfbench
{

/** CPU seconds this process has used (all threads, live or exited). */
double processCpuSeconds();

/** Peak resident set size of this process, in MiB (VmHWM). */
double peakRssMb();

/** Online CPUs (the load generator's thread/connection cap). */
unsigned hostCpus();

/** One sample of everything a window diffs. */
struct HostSample
{
    double wall = 0.0;       ///< monotonic seconds
    double processCpu = 0.0; ///< seconds
    std::uint64_t hostTicks = 0;  ///< /proc/stat cpu total
    std::uint64_t stealTicks = 0; ///< /proc/stat cpu steal
    /** tid -> CPU seconds of every live thread. */
    std::map<int, double> threads;

    static HostSample take();
};

/** The difference between two samples. */
struct HostWindow
{
    double wallS = 0.0;
    double cpuS = 0.0;
    double stealShare = 0.0; ///< steal ticks / all host ticks
    /** CPU seconds per thread id, for threads alive at the end. */
    std::map<int, double> threadCpu;

    static HostWindow between(const HostSample &a, const HostSample &b);

    /** One human-readable line: wall, cpu, steal, busiest threads. */
    std::string describe() const;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
