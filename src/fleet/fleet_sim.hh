/**
 * @file
 * Deterministic multi-replica serving: N identical sharded replicas
 * (one cluster, one sharding, one calibrated serve::ServeSimulator
 * whose immutable cost tables every replica session shares) behind
 * a seeded Router, with cross-replica failover and an optional
 * hysteresis Autoscaler.
 *
 * The fleet drives every replica's resumable session
 * (startSession / advance / finishSession) against one shared
 * virtual clock.  Each step advances all sessions in parallel to
 * the next fleet event — an arrival, a replica fault boundary, or
 * an autoscaler tick — then applies the events in a fixed order:
 * fault transitions in replica-index order, arrivals in
 * (arrival, id) order, the autoscaler tick last.
 *
 * Failover: a replica with *any* chip down (FaultSchedule::
 * downSpans) is unroutable; at the down boundary its in-flight and
 * queued work is drained and re-offered to the router after the
 * capped-backoff retry budget (fault::RetryBudget), never silently
 * dropped.  Sheds on a *healthy* replica (queue overflow,
 * can-never-fit) stay final — genuine overload is not a fault.
 * Intra-replica degraded replanning is the fault layer's domain;
 * the fleet fails over at replica granularity.
 *
 * Gray failures: a replica with an active ChipSlowdown keeps
 * serving — its session runs every round at the schedule's
 * multiplier — and is *not* removed from routing by the fault
 * model itself.  Detection is the HealthMonitor's job: when
 * FleetOptions::health is enabled, each replica's observed step
 * latency and outstanding depth feed a circuit breaker (updated in
 * replica-index order at every fleet event boundary, between
 * applyFaults and routeArrivals), and an Open breaker removes the
 * replica from the eligible set until its half-open probe
 * succeeds.  The BrownoutController (FleetOptions::brownout)
 * watches fleet-wide pressure at the same boundary and, while
 * active, sheds sub-priority-floor / over-length-ceiling requests
 * at admission instead of letting the overload reject everything.
 *
 * Determinism contract: run() is a pure function of (requests,
 * run options) and the construction arguments, bit-identical for
 * any `threads` — sessions advance independently and emit no
 * observability, per-replica registries merge in replica-index
 * order under a "fleet/replica.<i>." prefix, and the health /
 * brownout state machines step on integer update counts at fixed
 * points in the event order.  A 1-replica fleet under the
 * pass-through policy with no faults, no autoscaler, and no
 * health/brownout control delegates outright to the replica's
 * run(), so its result — metrics and RunReport — is bit-for-bit
 * the single-replica fault-tolerant server's on an empty schedule.
 */

#ifndef TRANSFUSION_FLEET_FLEET_SIM_HH
#define TRANSFUSION_FLEET_FLEET_SIM_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/fault_server.hh"
#include "fleet/autoscaler.hh"
#include "fleet/brownout.hh"
#include "fleet/fleet_metrics.hh"
#include "fleet/health.hh"
#include "fleet/policy.hh"
#include "fleet/router.hh"

namespace transfusion::fleet
{

/** Construction-time fleet configuration. */
struct FleetOptions
{
    /** Simulator knobs shared by every replica. */
    serve::ServeOptions serve;
    /** Backoff budget for failed-over requests. */
    fault::RetryPolicy retry;
    /** Scaling policy; disabled by default (all replicas serve). */
    AutoscalerOptions autoscaler;
    /**
     * Per-replica gray-failure detection (EWMA monitor + circuit
     * breaker); disabled by default.  When enabled, every replica
     * gets its own monitor, updated in replica-index order at each
     * fleet event boundary, and an Open breaker removes the
     * replica from the router's eligible set.
     */
    HealthOptions health;
    /** Fleet-wide pressure-driven shedding; disabled by default.
     *  While active, the router sheds sub-floor-priority and
     *  over-ceiling-output requests at admission. */
    BrownoutOptions brownout;
    /** Worker threads advancing replica sessions; <= 0 = all
     *  hardware.  Results are bit-identical for any value. */
    int threads = 1;
    /** Worker threads for shard planning; <= 0 = all hardware. */
    int plan_threads = 0;
};

/** Per-run (not per-fleet) knobs: cheap to sweep. */
struct FleetRunOptions
{
    PolicyKind policy = PolicyKind::RoundRobin;
    /** Seeds the router's Rng (power-of-two-choices draws). */
    std::uint64_t seed = 1;
    /**
     * Per-replica fault schedules, indexed by replica; shorter
     * than the fleet means the tail replicas never fault.  Each
     * schedule is validated against its replica's cluster size.
     * Down-spans make the replica unroutable (fail-stop); the
     * slowdown timeline (gray failures) scales the replica's
     * session clock at each transition timestamp — the replica
     * keeps serving, and only the HealthMonitor can route around
     * it.
     */
    std::vector<fault::FaultSchedule> faults;
};

/**
 * N calibrated sharded replicas behind one router.  Construction
 * calibrates the replicas' shared cost tables (the expensive
 * part); run() replays traces and is const.
 *
 * The shared-clock loop keeps every source's next boundary (trace
 * and re-offer fronts, each replica's fault and slowdown steps) in
 * a deterministic min-heap (see fleet/event_queue.hh) and advances
 * only the sessions that have work behind the horizon.  At one
 * boundary the events apply in the fixed order Fault < Arrival <
 * Tick: fault transitions (replica-index order), then health and
 * brownout updates, then arrivals in (arrival, id) order, then the
 * autoscaler tick.
 */
class FleetSimulator
{
  public:
    /**
     * Homogeneous fleet: `replicas` copies of one (cluster, spec),
     * planned and calibrated *once* and shared — sessions are
     * independent of the simulator instance, so replicas can share
     * immutable cost tables.
     */
    static FleetSimulator uniform(int replicas,
                                  multichip::ClusterConfig cluster,
                                  model::TransformerConfig cfg,
                                  serve::WorkloadOptions workload,
                                  FleetOptions options = {});

    /**
     * Homogeneous fleet with an explicit sharding: skips the
     * planShards search entirely (the capacity planner enumerates
     * (tp, pp) itself and must not pay — or observe — a plan sweep
     * per candidate).  `spec` with tp or pp <= 0 falls back to
     * planning, making the plain overload the spec{0,0} case.
     */
    static FleetSimulator uniform(int replicas,
                                  multichip::ClusterConfig cluster,
                                  multichip::ShardSpec spec,
                                  model::TransformerConfig cfg,
                                  serve::WorkloadOptions workload,
                                  FleetOptions options = {});

    /**
     * Replay `requests` (sorted by arrival, positive lengths)
     * across the fleet.  Asserts the fleet ledger offered ==
     * completed + rejected, with rejected = replica sheds +
     * failover_exhausted + held_rejected.
     */
    FleetMetrics run(const std::vector<serve::Request> &requests,
                     const FleetRunOptions &run = {}) const;

    int replicaCount() const { return replicas_; }

    /** The calibrated simulator every replica session runs on. */
    const serve::ServeSimulator &simulator() const { return *sim_; }

    /** The sharding every replica runs. */
    multichip::ShardSpec spec() const { return spec_; }

    const FleetOptions &options() const { return options_; }

  private:
    FleetSimulator(int replicas, multichip::ClusterConfig cluster,
                   multichip::ShardSpec spec,
                   model::TransformerConfig cfg,
                   serve::WorkloadOptions workload,
                   FleetOptions options);

    int replicas_ = 0;
    multichip::ClusterConfig cluster_;
    multichip::ShardSpec spec_{ 0, 0 };
    FleetOptions options_;
    std::optional<serve::ServeSimulator> sim_;
};

} // namespace transfusion::fleet

#endif // TRANSFUSION_FLEET_FLEET_SIM_HH
