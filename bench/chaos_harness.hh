/**
 * @file
 * The seeded chaos-invariant harness, shared by the ctest sweep
 * (tests/chaos) and the standalone sweep (ext_chaos_sweep).  One
 * seed builds a randomized trace, per-replica fault schedules
 * (losses, link degrades, correlated gray-failure slowdowns) and a
 * rotating policy / health / brownout configuration, replays it on
 * a small fleet under both sim cores and two thread counts, and
 * checks five invariants:
 *
 *   1. conservation — completed + rejected == offered, fleet-wide
 *      and per replica;
 *   2. core agreement — Legacy and EventHeap replays are bitwise
 *      identical (metrics and RunReport);
 *   3. thread independence — threads=1 and threads=4 replays are
 *      bitwise identical;
 *   4. termination — every replay returns;
 *   5. exact recovery — a fault-tolerant server replay whose
 *      schedule was fully applied ends on the exact initial spec.
 *
 * runSeed() reports failures as a string rather than asserting, so
 * seeds can fan out over a ThreadPool.
 */

#ifndef TRANSFUSION_BENCH_CHAOS_HARNESS_HH
#define TRANSFUSION_BENCH_CHAOS_HARNESS_HH

#include <cstdint>
#include <string>

#include "fleet/fleet_sim.hh"

namespace transfusion::bench::chaos
{

/** Replicas per fleet; each seed sweeps this many schedules. */
constexpr int kReplicas = 3;

/** One seed's verdict plus the headline numbers of its event-heap,
 *  one-thread replay. */
struct SeedResult
{
    std::uint64_t seed = 0;
    fleet::PolicyKind policy = fleet::PolicyKind::RoundRobin;
    /** Fault events across every replica's schedule. */
    std::int64_t fault_events = 0;
    fleet::FleetMetrics metrics;
    /** Every violated invariant; empty = the seed passed. */
    std::string failure;
};

/**
 * Calibrate the harness's one replica shape once, so seeds fanned
 * out in parallel afterwards hit the process-wide cost-table cache
 * instead of racing to build it.
 */
void warmCostTables();

/** Replay one seed and check all five invariants. */
SeedResult runSeed(std::uint64_t seed);

} // namespace transfusion::bench::chaos

#endif // TRANSFUSION_BENCH_CHAOS_HARNESS_HH
