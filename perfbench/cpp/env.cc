#include "env.hh"

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "common/thread_pool.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench
{

namespace
{

/** Seconds for 100k steps around a random cycle over 1.5 MiB (about
 *  1 ms): nearly every step misses L1 and hits L2, unless another
 *  tenant of the core is evicting it or taking its cycles. */
double
probeSeconds()
{
    static const std::vector<std::uint32_t> ring = [] {
        const std::size_t n = (std::size_t{ 1536 } << 10) / 4;
        std::vector<std::uint32_t> order(n);
        std::iota(order.begin(), order.end(), 0u);
        std::mt19937_64 rng(12345);
        std::shuffle(order.begin(), order.end(), rng);
        std::vector<std::uint32_t> next(n);
        for (std::size_t i = 0; i < n; ++i)
            next[order[i]] = order[(i + 1) % n];
        return next;
    }();
    const auto t0 = std::chrono::steady_clock::now();
    std::uint32_t at = 0;
    for (int i = 0; i < 100000; ++i)
        at = ring[at];
    const double s = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
    volatile std::uint32_t sink = at;
    (void)sink;
    return s;
}

bool
pinTo(int cpu)
{
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
}

} // namespace

EnvStamp
EnvStamp::current(int threads, std::uint64_t seed)
{
    EnvStamp e;
    e.build_type = PERFBENCH_BUILD_TYPE;
    e.obs = TRANSFUSION_OBS_ENABLED != 0;
    // Sanitizer flags can only arrive through CXXFLAGS.
#if defined(__SANITIZE_ADDRESS__)
    e.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
    e.sanitizer = "thread";
#endif
#if defined(__clang__)
    e.compiler = "clang-" __clang_version__;
#elif defined(__GNUC__)
    e.compiler = "gcc-" __VERSION__;
#else
    e.compiler = "unknown";
#endif
    std::replace(e.compiler.begin(), e.compiler.end(), ' ', '_');
    e.nproc = onlineCpus();
    e.threads = threads;
    e.seed = seed;
    return e;
}

std::string
EnvStamp::refusal() const
{
    if (build_type == "Debug" || build_type.empty())
        return "build type '" + build_type
            + "' is unoptimized; configure RelWithDebInfo or Release";
    if (!sanitizer.empty())
        return "built with the " + sanitizer
            + " sanitizer; timings would measure instrumentation";
    return {};
}

std::string
EnvStamp::line() const
{
    std::ostringstream os;
    os << "env build_type=" << build_type
       << " transfusion_obs=" << (obs ? "ON" : "OFF")
       << " sanitizer=" << (sanitizer.empty() ? "none" : sanitizer)
       << " compiler=" << compiler << " nproc=" << nproc
       << " threads=" << threads << " seed=" << seed;
    return os.str();
}

int
onlineCpus()
{
    // The CPUs this process may run on (what `nproc` prints), which
    // in a container can be fewer than the machine has.
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0)
        return std::max(1, CPU_COUNT(&set));
    return transfusion::ThreadPool::hardwareThreads();
}

void
pinToQuietestCpu()
{
    // The CPUs the process started with, captured before any pin.
    static const cpu_set_t allowed = [] {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            CPU_ZERO(&set);
        return set;
    }();
    int best_cpu = -1;
    double best_s = INFINITY;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
        if (!CPU_ISSET(cpu, &allowed) || !pinTo(cpu))
            continue;
        double s = INFINITY;
        for (int k = 0; k < 3; ++k)
            s = std::min(s, probeSeconds());
        if (s < best_s) {
            best_s = s;
            best_cpu = cpu;
        }
    }
    if (best_cpu < 0 || !pinTo(best_cpu))
        sched_setaffinity(0, sizeof(allowed), &allowed);
}

double
peakRssMiB()
{
    // VmHWM belongs to this program's address space.  getrusage's
    // ru_maxrss would not do: it keeps the high-water mark of the
    // process image replaced by exec, so the footprint of the parent
    // that started it (run.py's Python, about 10 MiB) would hide this
    // program's own.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

} // namespace perfbench
