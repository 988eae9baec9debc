/**
 * @file
 * Shared plumbing for the figure-regeneration binaries: cached
 * evaluation points, speedup/energy series, and consistent table
 * headers matching the paper's legends.
 */

#ifndef TRANSFUSION_BENCH_BENCH_UTIL_HH
#define TRANSFUSION_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "common/table.hh"
#include "fleet/policy.hh"
#include "schedule/sweep.hh"
#include "sim/compare.hh"

namespace transfusion::bench
{

/**
 * Flags shared by the bench binaries.  One parser instead of
 * per-binary ad-hoc argv handling; binaries that need extra flags
 * can extend it, but the common trio stays spelled the same way
 * everywhere.
 */
struct BenchArgs
{
    /** Worker threads for parallel sweeps; 0 = all hardware. */
    int threads = 0;
    /** Base RNG seed for stochastic components / workloads. */
    std::uint64_t seed = 1;
    /** Emit tables as CSV instead of aligned text. */
    bool csv = false;
    /** Chrome trace_event JSON written at exit (empty = off). */
    std::string trace_path;
    /** obs::RunReport written at exit (empty = off).  A path
     *  ending in .csv selects the flat CSV exporter; anything else
     *  gets the sorted golden-style key/value text. */
    std::string report_path;
    /** Cluster size for multi-chip benches (default: 1 chip). */
    int chips = 1;
    /** Tensor-parallel width (default: 1 = unsharded). */
    int tp = 1;
    /** Pipeline stages (default: 1 = no pipelining). */
    int pp = 1;
    /** Generated fault events for fault benches (0 = none). */
    int faults = 1;
    /** Replica count for fleet benches (default: 1). */
    int replicas = 1;
    /** Fleet load-balancing policy (default: round-robin). */
    fleet::PolicyKind policy = fleet::PolicyKind::RoundRobin;
    /** p99 end-to-end latency SLO for the capacity planner, in
     *  milliseconds (must be > 0). */
    double slo_p99_ms = 2000.0;
    /** Chip budget for the capacity planner's search space
     *  (0 = unlimited). */
    int budget_chips = 0;
    /** Seeded fault schedules swept by the chaos harness. */
    int schedules = 32;
};

/**
 * Parse `--threads N`, `--seed N`, `--csv`, `--trace FILE`,
 * `--report FILE`, `--chips N`, `--tp N`, `--pp N`, `--faults N`,
 * `--replicas N`, `--policy NAME`, `--slo-p99-ms X`,
 * `--budget-chips N` and `--schedules N` (plus `--help`).  Unknown flags print usage
 * to stderr and exit(2); `--help` prints it to stdout and exit(0).
 * Count flags are parsed strictly: a non-numeric value, trailing
 * garbage (`--chips 4x`), an out-of-range count or an
 * int64-overflowing literal (`--chips 99999999999999999999`)
 * exits(2); `--faults` and `--budget-chips` alone accept 0
 * (fault-free / unlimited).  `--policy` takes a
 * fleet::parsePolicy name; an unknown name exits(2).
 * `--slo-p99-ms` is parsed just as strictly as a finite positive
 * real (trailing garbage, zero, negative, inf/nan all exit(2)).
 *
 * `--trace` starts the global obs::TraceSession immediately;
 * `--trace`/`--report` artifacts are written by an atexit hook, so
 * every bench binary emits them without extra plumbing.
 */
BenchArgs parseBenchArgs(int argc, char **argv);

/** Print `t` honoring the `--csv` flag. */
void printTable(const Table &t, const BenchArgs &args,
                std::ostream &os);

/** All-strategy evaluation at one point. */
using PointResults =
    std::map<schedule::StrategyKind, schedule::EvalResult>;

/** Evaluate one (arch, model, seq) point with bench defaults. */
PointResults evaluatePoint(const arch::ArchConfig &arch,
                           const model::TransformerConfig &cfg,
                           std::int64_t seq);

/**
 * Sweep configuration with the same evaluator defaults as
 * evaluatePoint, so parallel figure sweeps reproduce the serial
 * numbers bit-for-bit.
 */
schedule::SweepOptions sweepOptions();

/** Strategy column order used by every figure. */
std::vector<schedule::StrategyKind> figureStrategies();

/** "1K" ... "1M" labels for the paper's sequence axis. */
std::string seqLabel(std::int64_t seq);

/** Print a figure banner with reproduction context. */
void printBanner(const std::string &figure,
                 const std::string &description);

} // namespace transfusion::bench

#endif // TRANSFUSION_BENCH_BENCH_UTIL_HH
