/**
 * @file
 * Implementation of the seeded chaos-invariant harness.
 */

#include "chaos_harness.hh"

#include <sstream>
#include <vector>

#include "fault/fault_server.hh"
#include "metrics_diff.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/workload.hh"

namespace transfusion::bench::chaos
{

namespace
{

constexpr int kChipsPerReplica = 2;

/** Cheap calibration knobs; cost tables are cached process-wide. */
serve::ServeOptions
fastServe(serve::SimCoreKind core)
{
    serve::ServeOptions o;
    o.strategy = schedule::StrategyKind::TransFusion;
    o.max_batch = 4;
    o.cost.cache_samples = 3;
    o.cost.prefill_samples = 3;
    o.cost.evaluator.mcts.iterations = 32;
    o.core = core;
    return o;
}

/** Per-seed fleet configuration: health on even seeds, brownout on
 *  every third, so detector paths chaos-test alongside plain
 *  failover — under both loop cores and both thread counts. */
fleet::FleetOptions
fleetOptions(std::uint64_t seed, serve::SimCoreKind core,
             int threads)
{
    fleet::FleetOptions o;
    o.serve = fastServe(core);
    o.threads = threads;
    o.plan_threads = 1;
    if (seed % 2 == 0) {
        o.health.enabled = true;
        o.health.alpha = 0.5;
        o.health.depth_breach =
            3.0 + static_cast<double>(seed % 5);
        o.health.breach_streak = 2;
        o.health.cooldown_updates = 3;
        o.health.probe_updates = 2;
    }
    if (seed % 3 == 0) {
        o.brownout.enabled = true;
        o.brownout.alpha = 0.5;
        o.brownout.pressure_depth =
            3.0 + static_cast<double>(seed % 4);
        o.brownout.release_depth = 1.0;
        o.brownout.pressure_streak = 2;
        o.brownout.relief_streak = 2;
        o.brownout.min_priority = 1;
    }
    return o;
}

/** Mixed-kind randomized schedule shape for one replica. */
fault::FaultScheduleOptions
scheduleOptions(std::uint64_t seed)
{
    fault::FaultScheduleOptions o;
    o.incidents = static_cast<int>(seed % 5); // 0 = fault-free
    o.horizon_s = 2.0 + static_cast<double>(seed % 4);
    o.mean_outage_s = 0.2 + static_cast<double>(seed % 3) * 0.4;
    o.link_degrade_prob = static_cast<double>(seed % 3) * 0.2;
    o.slowdown_prob = static_cast<double>((seed / 3) % 3) * 0.25;
    o.mean_slowdown_s = 0.5 + static_cast<double>(seed % 2);
    o.max_multiplier = 2.0 + static_cast<double>(seed % 3);
    o.slowdown_group = 1 + static_cast<int>(seed % 2);
    return o;
}

/** The simulator's workload envelope (sizes calibration grids). */
serve::WorkloadOptions
envelope()
{
    serve::WorkloadOptions wl;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    return wl;
}

std::vector<serve::Request>
chaosTrace(std::uint64_t seed)
{
    serve::WorkloadOptions wl = envelope();
    wl.arrival_per_s =
        (seed % 3 == 0) ? 100.0 : (seed % 3 == 1 ? 20.0 : 5.0);
    wl.requests = 10 + static_cast<std::int64_t>(seed % 8);
    auto trace = serve::generateWorkload(wl, seed);
    // Two priority classes so an active brownout has a floor to
    // shed against.
    for (auto &r : trace)
        r.priority = r.id % 2 == 0 ? 1 : 0;
    return trace;
}

/** One replay inside its own registry; the report string rides
 *  along so core/thread agreement covers the observable record. */
struct Replay
{
    fleet::FleetMetrics metrics;
    std::string report;
};

Replay
replay(const fleet::FleetSimulator &fleet,
       const std::vector<serve::Request> &trace,
       const fleet::FleetRunOptions &run)
{
    obs::Registry reg;
    Replay r;
    {
        obs::ScopedRegistry scope(reg);
        r.metrics = fleet.run(trace, run);
    }
    r.report = obs::RunReport::capture(reg).toString();
    return r;
}

} // namespace

void
warmCostTables()
{
    (void)fleet::FleetSimulator::uniform(
        1, multichip::edgeCluster(kChipsPerReplica),
        multichip::ShardSpec{ kChipsPerReplica, 1 },
        model::t5Small(), envelope(),
        fleetOptions(1, serve::SimCoreKind::EventHeap, 1));
}

SeedResult
runSeed(std::uint64_t seed)
{
    SeedResult out;
    out.seed = seed;

    const auto cluster = multichip::edgeCluster(kChipsPerReplica);
    const auto cfg = model::t5Small();
    const serve::WorkloadOptions wl = envelope();
    const multichip::ShardSpec spec{ kChipsPerReplica, 1 };

    const auto trace = chaosTrace(seed);
    fleet::FleetRunOptions run;
    const auto policies = fleet::allPolicies();
    run.policy = policies[seed % policies.size()];
    out.policy = run.policy;
    run.seed = seed;
    run.faults.resize(kReplicas);
    for (int r = 0; r < kReplicas; ++r) {
        auto &faults = run.faults[static_cast<std::size_t>(r)];
        faults = fault::generateFaultSchedule(
            scheduleOptions(seed + static_cast<std::uint64_t>(r)),
            kChipsPerReplica,
            seed * 31 + static_cast<std::uint64_t>(r));
        out.fault_events +=
            static_cast<std::int64_t>(faults.events.size());
    }

    const auto fleetFor = [&](serve::SimCoreKind core,
                              int threads) {
        return fleet::FleetSimulator::uniform(
            kReplicas, cluster, spec, cfg, wl,
            fleetOptions(seed, core, threads));
    };
    // Invariant 4 (termination) is every one of these returning.
    const Replay legacy1 =
        replay(fleetFor(serve::SimCoreKind::Legacy, 1), trace, run);
    const Replay event1 = replay(
        fleetFor(serve::SimCoreKind::EventHeap, 1), trace, run);
    const Replay event4 = replay(
        fleetFor(serve::SimCoreKind::EventHeap, 4), trace, run);
    out.metrics = event1.metrics;

    std::ostringstream err;
    // Invariant 1: conservation, fleet-wide and per replica (run()
    // also self-asserts).
    for (const Replay *r : { &legacy1, &event1, &event4 }) {
        if (r->metrics.completed + r->metrics.rejected
            != r->metrics.offered)
            err << "conservation leak; ";
        for (const auto &rep : r->metrics.replicas)
            if (rep.completed + rep.rejected != rep.offered)
                err << "replica conservation leak; ";
    }
    // Invariant 2: legacy vs event-heap, bitwise.
    const std::string cores =
        diffFleetMetrics(legacy1.metrics, event1.metrics);
    if (!cores.empty())
        err << "legacy-vs-event: " << cores;
    if (legacy1.report != event1.report)
        err << "legacy-vs-event report differs; ";
    // Invariant 3: threads 1 vs 4, bitwise.
    const std::string threads =
        diffFleetMetrics(event1.metrics, event4.metrics);
    if (!threads.empty())
        err << "threads-1v4: " << threads;
    if (event1.report != event4.report)
        err << "threads-1v4 report differs; ";

    // Invariant 5: a fault-tolerant server replay of replica 0's
    // schedule that applied every event (the trace outlived the
    // faults) must end on the exact initial spec — generated
    // schedules pair every fault with a recovery.
    fault::FaultServeOptions fo;
    fo.serve = fastServe(serve::SimCoreKind::EventHeap);
    fo.initial_spec = spec;
    fo.plan_threads = 1;
    const fault::FaultTolerantServer server(cluster, cfg, wl, fo);
    fault::FaultServeMetrics sm;
    {
        obs::Registry reg;
        obs::ScopedRegistry scope(reg);
        sm = server.run(trace, run.faults[0]);
    }
    if (sm.fault_events
            == static_cast<std::int64_t>(run.faults[0].events.size())
        && !sm.windows.empty()) {
        // Losses and slowdowns are generated paired, so the final
        // window always runs every chip at full speed.  Link
        // degrades have no paired recovery: the exact-spec restore
        // only applies when the fabric ended at full bandwidth.
        double final_link = 1.0;
        for (const auto &e : run.faults[0].events)
            if (e.kind == fault::FaultKind::LinkDegrade)
                final_link = e.factor;
        const auto &last = sm.windows.back();
        if (last.chips != kChipsPerReplica || last.slowdown != 1.0
            || last.link_scale != final_link)
            err << "recovery left the final window degraded "
                   "(chips "
                << last.chips << " slowdown " << last.slowdown
                << " link " << last.link_scale << "); ";
        if (final_link == 1.0
            && (last.spec.tp != spec.tp || last.spec.pp != spec.pp))
            err << "recovery did not restore the initial spec "
                   "(tp "
                << last.spec.tp << " pp " << last.spec.pp << "); ";
    }
    if (sm.serve.completed + sm.serve.rejected != sm.serve.offered)
        err << "server conservation leak; ";

    out.failure = err.str();
    return out;
}

} // namespace transfusion::bench::chaos
