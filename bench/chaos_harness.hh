/**
 * @file
 * The seeded chaos-invariant harness, shared by the ctest sweep
 * (tests/chaos) and the standalone sweep (ext_chaos_sweep).  One
 * seed builds a randomized trace, per-replica fault schedules
 * (losses, link degrades, correlated gray-failure slowdowns) and a
 * rotating policy / health / brownout configuration, replays it on
 * a small fleet at two thread counts, and checks five invariants:
 *
 *   1. conservation — completed + rejected == offered, fleet-wide
 *      and per replica;
 *   2. core oracle — the one-thread replay matches the seed's
 *      committed Legacy-core digest (bench::legacyCoreDigests,
 *      seeds 1-70), when the file has one for it;
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
#include "metrics_diff.hh"

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
    /** Whether invariant 2 ran: the digest file has this seed. */
    bool oracle_checked = false;
};

/**
 * Calibrate the harness's one replica shape once, so seeds fanned
 * out in parallel afterwards hit the process-wide cost-table cache
 * instead of racing to build it.
 */
void warmCostTables();

/** Replay one seed and check all five invariants (invariant 2
 *  only for a seed with a committed digest). */
SeedResult runSeed(std::uint64_t seed);

/** Cell name of the saturating replay in its digest file. */
inline constexpr const char *kSaturatingCell = "chaos/saturating";

/**
 * Replay the saturating chaos cell at `threads` and digest it.  The
 * seeded traces above (5-100 req/s, 10-17 requests) rarely retire
 * two requests in one decode round, so a fault in the finish heap's
 * tie order leaves their digests unchanged.  This cell is a
 * 2000 req/s burst of 480 requests with 16-17 output tokens on the
 * same fleet (kReplicas replicas, power-of-two routing, health and
 * brownout off) under seed 1's per-replica fault schedules: it
 * keeps every batch full, and 76 of its decode rounds retire two or
 * more requests at once.
 */
ReplayDigest saturatingCellDigest(int threads);

} // namespace transfusion::bench::chaos

#endif // TRANSFUSION_BENCH_CHAOS_HARNESS_HH
