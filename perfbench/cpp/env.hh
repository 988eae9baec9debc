/**
 * @file
 * Environment stamp recorded with every benchmark result: how the
 * program was built and on what it ran.  Numbers from a Debug or
 * sanitizer build are refused, since they measure the build rather
 * than the code.
 */

#ifndef PERFBENCH_ENV_HH
#define PERFBENCH_ENV_HH

#include <cstdint>
#include <string>

namespace perfbench
{

struct EnvStamp
{
    std::string build_type;
    bool obs = false;
    std::string sanitizer; ///< empty = none
    std::string compiler;
    int nproc = 1;
    int threads = 1;
    std::uint64_t seed = 0;

    /** Build facts of this binary plus the run's threads/seed. */
    static EnvStamp current(int threads, std::uint64_t seed);

    /** Empty when numbers may be reported, else the reason not. */
    std::string refusal() const;

    /** One `env key=value ...` line. */
    std::string line() const;
};

/** CPUs this process may run on, as `nproc` counts them. */
int onlineCpus();

/**
 * Worker threads every run uses.  One: on a shared host the wall time
 * of a threaded op follows the scheduler and the other tenants more
 * than the program.
 */
constexpr int kThreads = 1;

/**
 * Pin the calling thread to the CPU, among those the process started
 * with, where a short cache-bound probe runs fastest (left unpinned
 * when affinity cannot be set).  On a shared host another tenant of
 * the same core can make one CPU run this program up to twice as
 * slowly for tens of seconds while another CPU is quiet, and the
 * scheduler cannot see it.  Call between timed operations.
 */
void pinToQuietestCpu();

/** Peak resident set of this process so far, in MiB. */
double peakRssMiB();

/** User + system CPU seconds this process has used so far. */
double processCpuSeconds();

} // namespace perfbench

#endif // PERFBENCH_ENV_HH
