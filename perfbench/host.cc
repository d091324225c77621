#include "host.hh"

#include <dirent.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "tracer.hh"

namespace perfbench
{

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB -> MiB
    }
    return 0.0;
}

unsigned
hostCpus()
{
    long n = sysconf(_SC_NPROCESSORS_ONLN);
    return n > 0 ? static_cast<unsigned>(n) : 1u;
}

namespace
{

/** utime + stime of a /proc/.../stat file, in seconds. */
bool
readTaskCpu(const std::string &path, double &cpu)
{
    std::ifstream in(path);
    std::string text;
    if (!std::getline(in, text))
        return false;
    // "tid (comm) state ..." -- comm may hold spaces, so split at the
    // last ')'.  utime and stime are fields 14 and 15 overall, i.e.
    // the 12th and 13th after the state field.
    std::size_t close = text.rfind(')');
    if (close == std::string::npos || close + 2 > text.size())
        return false;
    std::istringstream rest(text.substr(close + 2));
    std::string field;
    unsigned long long utime = 0, stime = 0;
    for (int i = 1; rest >> field; ++i) {
        if (i == 12)
            utime = std::stoull(field);
        if (i == 13) {
            stime = std::stoull(field);
            break;
        }
    }
    static const double tick = static_cast<double>(sysconf(_SC_CLK_TCK));
    cpu = static_cast<double>(utime + stime) / tick;
    return true;
}

} // namespace

HostSample
HostSample::take()
{
    HostSample sample;
    sample.wall = static_cast<double>(nowNs()) * 1e-9;
    sample.processCpu = processCpuSeconds();

    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label; // "cpu"
    std::vector<std::uint64_t> ticks;
    std::uint64_t v;
    for (int i = 0; i < 10 && stat >> v; ++i)
        ticks.push_back(v);
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already inside user, so the total stops at steal.
    for (std::size_t i = 0; i < ticks.size() && i < 8; ++i)
        sample.hostTicks += ticks[i];
    if (ticks.size() > 7)
        sample.stealTicks = ticks[7];

    if (DIR *dir = opendir("/proc/self/task")) {
        while (dirent *entry = readdir(dir)) {
            if (entry->d_name[0] == '.')
                continue;
            double cpu = 0.0;
            if (readTaskCpu(std::string("/proc/self/task/") +
                                entry->d_name + "/stat",
                            cpu))
                sample.threads[std::atoi(entry->d_name)] = cpu;
        }
        closedir(dir);
    }
    return sample;
}

HostWindow
HostWindow::between(const HostSample &a, const HostSample &b)
{
    HostWindow w;
    w.wallS = b.wall - a.wall;
    w.cpuS = b.processCpu - a.processCpu;
    std::uint64_t ticks = b.hostTicks - a.hostTicks;
    w.stealShare = ticks ? static_cast<double>(b.stealTicks -
                                               a.stealTicks) /
                               static_cast<double>(ticks)
                         : 0.0;
    for (const auto &[tid, cpu] : b.threads) {
        auto before = a.threads.find(tid);
        w.threadCpu[tid] =
            cpu - (before != a.threads.end() ? before->second : 0.0);
    }
    return w;
}

std::string
HostWindow::describe() const
{
    char head[160];
    std::snprintf(head, sizeof(head),
                  "noise: wall %.3fs cpu %.3fs steal %.2f%% threads:",
                  wallS, cpuS, 100.0 * stealShare);
    std::string line = head;
    std::vector<std::pair<double, int>> busiest;
    for (const auto &[tid, cpu] : threadCpu)
        busiest.emplace_back(cpu, tid);
    std::sort(busiest.rbegin(), busiest.rend());
    for (const auto &[cpu, tid] : busiest) {
        if (cpu <= 0.0)
            break; // idle threads add nothing but length
        char item[48];
        std::snprintf(item, sizeof(item), " %d=%.2fs", tid, cpu);
        line += item;
    }
    return line;
}

} // namespace perfbench
