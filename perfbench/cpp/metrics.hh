/**
 * @file
 * The benchmark's metric declarations and its result line.
 *
 * Every run prints every declared metric of its kind: all end-to-end
 * metrics when untraced, all per-layer metrics when traced.  A
 * per-layer metric of a layer a workload never enters reads 0.
 */

#ifndef PERFBENCH_METRICS_HH
#define PERFBENCH_METRICS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

struct MetricDef
{
    std::string name;
    std::string unit;
    /** "lower" or "higher". */
    std::string better;
    /** Module the metric measures ("e2e" for end-to-end ones). */
    std::string layer;
    /** What it is, including host vs modeled time. */
    std::string what;
    /** A share of the traced wall time: the self times plus
     *  bench.other_s sum to bench.traced_wall_s. */
    bool self_time = false;
};

/** End-to-end metrics, printed by every untraced run. */
const std::vector<MetricDef> &endToEndMetrics();

/** Per-layer metrics, printed by every traced run. */
const std::vector<MetricDef> &perLayerMetrics();

/** Letters, digits, '_', '.', '-'; starts with a letter or digit;
 *  at most 64 characters. */
bool validMetricName(const std::string &name);

using MetricValues = std::map<std::string, double>;

struct RunResult
{
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    MetricValues metrics;
};

/**
 * Print `metric <name> <value> <unit>` for every metric of `defs`
 * and then the one-line JSON result.  Throws std::runtime_error
 * when a declared metric is missing, undeclared or not finite --
 * a run must never report a partial result.
 */
void printResult(const RunResult &result,
                 const std::vector<MetricDef> &defs,
                 std::ostream &os);

/** Tab-separated declarations (kind, name, unit, better, layer,
 *  what), one per line, for `--list-metrics`. */
void printDeclarations(std::ostream &os);

} // namespace perfbench

#endif // PERFBENCH_METRICS_HH
