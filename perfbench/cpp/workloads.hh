/**
 * @file
 * The four benchmark workloads and the loop that measures them.
 *
 * A run, in one fresh process:
 *   1. set up, each time from an empty CostTableCache, in units of
 *      at least 20 ms (setup_s = median per set-up over the units);
 *   2. repeat the timed operation, each from an empty cache, for the
 *      requested seconds, a set-up unit after each (host_op_s = the
 *      sum over the op's items of each item's best time, or the best
 *      whole op when the op has no items);
 *   3. check every operation's outputs: invariants for any seed, bit
 *      equality with the first operation's, and for the default seed
 *      every modeled output against the values captured under
 *      perfbench/expected/.  An operation passes when all its checks
 *      do; `attempted` and `failed` count operations.
 * A traced run measures untraced operations for half the time, then
 * repeats traced iterations (set-up + operation + the workload's
 * direct per-layer probes) with obs::TraceSession on and reports the
 * per-layer metrics per iteration.  Host times come only from the
 * benchmark's steady clock and spans, never from obs timers (cache
 * hits replay the first build's timer values).
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "metrics.hh"

namespace perfbench
{

/** Seed whose outputs are checked against perfbench/expected/. */
constexpr std::uint64_t kDefaultSeed = 1;

struct RunConfig
{
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10;
    bool trace = false;
    /** Smoke-test sizes: seconds of work instead of minutes; the
     *  outputs are not compared with perfbench/expected/. */
    bool tiny = false;
};

const std::vector<std::string> &workloadNames();

/** Measure one workload; human-readable lines go to `log`. */
RunResult runWorkload(const RunConfig &config, std::ostream &log);

/** Set up once, run one operation and write its digest to
 *  perfbench/expected/<workload>.txt; false on error. */
bool writeExpectedDigest(const RunConfig &config, std::ostream &log);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
