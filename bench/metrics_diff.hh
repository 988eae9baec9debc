/**
 * @file
 * Bitwise comparison of serve and fleet replay ledgers — the one
 * comparator behind every "these two replays are identical" check
 * (fault/fleet unit tests, the differential replay harness, the
 * chaos harness and its sweep binary).
 *
 * It returns a description of every differing field instead of
 * asserting, so gtest callers wrap it in EXPECT_EQ(..., "") and
 * ThreadPool workers (where gtest assertions are not thread-safe)
 * collect the strings.  Doubles compare with `!=` (bitwise for
 * non-NaN values); histograms compare by sample count, sum in
 * recorded order and order statistics, which pins their sample sets
 * and, through the sum's last bits, the order they were recorded
 * in.  Neither argument is modified.
 */

#ifndef TRANSFUSION_BENCH_METRICS_DIFF_HH
#define TRANSFUSION_BENCH_METRICS_DIFF_HH

#include <string>

#include "fleet/fleet_metrics.hh"
#include "serve/simulator.hh"

namespace transfusion::bench
{

/** Every differing field of two serve ledgers; empty = equal. */
std::string diffServeMetrics(const serve::ServeMetrics &a,
                             const serve::ServeMetrics &b);

/** Every differing field of two fleet replays, per-replica serve
 *  ledgers included; empty = equal. */
std::string diffFleetMetrics(const fleet::FleetMetrics &a,
                             const fleet::FleetMetrics &b);

} // namespace transfusion::bench

#endif // TRANSFUSION_BENCH_METRICS_DIFF_HH
