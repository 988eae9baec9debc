/**
 * @file
 * Differential replay harness: the legacy linear-scan simulation
 * cores and the event-heap cores (serve::SimCoreKind) must be
 * observably indistinguishable — not approximately, bitwise.  Every
 * cell of a seed x routing-policy x fault-schedule grid replays the
 * same trace through both cores and compares the FleetMetrics field
 * by field, the latency histograms sample-set by sample-set, and
 * the captured RunReports string by string.
 *
 * The same harness pins the CostTableCache's transparency: a fleet
 * calibrated with memoization disabled must produce the same
 * report as one served from the cache, including the replayed
 * construction-time observability.
 *
 * This is the lock the tentpole rework turns: any divergence a
 * future core change introduces fails here first, with the exact
 * grid cell named.
 */

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "costmodel/cost_table_cache.hh"
#include "fleet/fleet_sim.hh"
#include "metrics_diff.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/workload.hh"

namespace transfusion
{
namespace
{

/** Saturating burst: arrivals far outpace one replica, so queues,
 *  sheds, and multi-round batches all occur. */
serve::WorkloadOptions
diffWorkload()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 400.0;
    wl.requests = 32;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    return wl;
}

fleet::FleetOptions
fleetOptions(serve::SimCoreKind core)
{
    fleet::FleetOptions o;
    o.serve.strategy = schedule::StrategyKind::TransFusion;
    o.serve.max_batch = 4;
    o.serve.core = core;
    o.serve.cost.cache_samples = 3;
    o.serve.cost.prefill_samples = 3;
    o.serve.cost.evaluator.mcts.iterations = 32;
    o.threads = 1;
    o.plan_threads = 1;
    return o;
}

/** One named per-replica fault assignment for the grid. */
struct FaultCase
{
    std::string name;
    std::vector<fault::FaultSchedule> faults;
};

std::vector<FaultCase>
faultCases()
{
    // Replica 1 loses its only chip mid-burst and recovers: the
    // down span drains it and failover re-offers its work.
    fault::FaultSchedule loss;
    loss.events.push_back({ 0.05, fault::FaultKind::ChipLoss, 0 });
    loss.events.push_back(
        { 0.40, fault::FaultKind::ChipRecovery, 0 });

    // A degraded-then-restored link opens no down span, so this
    // case pins that the event core agrees with legacy about
    // *non*-boundaries too.
    fault::FaultSchedule degrade;
    fault::FaultEvent slow;
    slow.time_s = 0.05;
    slow.kind = fault::FaultKind::LinkDegrade;
    slow.factor = 0.5;
    fault::FaultEvent restore = slow;
    restore.time_s = 0.50;
    restore.factor = 1.0;
    degrade.events.push_back(slow);
    degrade.events.push_back(restore);

    std::vector<FaultCase> cases;
    cases.push_back({ "empty", {} });
    cases.push_back({ "chip-loss", { {}, loss } });
    cases.push_back({ "link-degrade", { degrade } });
    return cases;
}

/** Replay under a scoped registry; return (metrics, report). */
std::pair<fleet::FleetMetrics, std::string>
replay(const fleet::FleetSimulator &fleet,
       const std::vector<serve::Request> &trace,
       const fleet::FleetRunOptions &run)
{
    obs::Registry local;
    fleet::FleetMetrics m;
    {
        obs::ScopedRegistry scope(local);
        m = fleet.run(trace, run);
    }
    return { std::move(m),
             obs::RunReport::capture(local).toString() };
}

/**
 * The full grid: >= 3 seeds x all 5 policies x {empty, chip-loss,
 * link-degrade}, legacy vs event cores side by side.  Only the
 * replay is per-cell; both fleets are calibrated once (cores share
 * cost tables by construction, which is itself part of the claim).
 */
TEST(ReplayDiff, FleetGridLegacyVsEventHeapBitwise)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = diffWorkload();

    const auto legacy = fleet::FleetSimulator::uniform(
        3, cluster, cfg, wl,
        fleetOptions(serve::SimCoreKind::Legacy));
    const auto event = fleet::FleetSimulator::uniform(
        3, cluster, cfg, wl,
        fleetOptions(serve::SimCoreKind::EventHeap));

    const auto cases = faultCases();
    for (const std::uint64_t seed : { 1u, 2u, 3u }) {
        const auto trace = serve::generateWorkload(wl, seed);
        for (const fleet::PolicyKind policy :
             fleet::allPolicies()) {
            for (const FaultCase &fc : cases) {
                SCOPED_TRACE("seed " + std::to_string(seed)
                             + " policy "
                             + fleet::toString(policy) + " faults "
                             + fc.name);
                fleet::FleetRunOptions run;
                run.policy = policy;
                run.seed = seed;
                run.faults = fc.faults;
                const auto [ml, rl] = replay(legacy, trace, run);
                const auto [me, re] = replay(event, trace, run);
                EXPECT_EQ(bench::diffFleetMetrics(ml, me), "");
                EXPECT_EQ(rl, re)
                    << obs::RunReport::diff(rl, re);
            }
        }
    }
}

/** The serve layer alone, below any router: legacy and event-heap
 *  session loops replay identical traces identically. */
TEST(ReplayDiff, ServeLegacyVsEventHeapBitwise)
{
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();
    const auto wl = diffWorkload();

    serve::ServeOptions legacy_opts;
    legacy_opts.core = serve::SimCoreKind::Legacy;
    legacy_opts.max_batch = 4;
    legacy_opts.cost.cache_samples = 3;
    legacy_opts.cost.prefill_samples = 3;
    legacy_opts.cost.evaluator.mcts.iterations = 32;
    serve::ServeOptions event_opts = legacy_opts;
    event_opts.core = serve::SimCoreKind::EventHeap;

    const serve::ServeSimulator legacy(arch, cfg, wl, legacy_opts);
    const serve::ServeSimulator event(arch, cfg, wl, event_opts);
    for (const std::uint64_t seed : { 1u, 7u, 23u }) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        const auto trace = serve::generateWorkload(wl, seed);
        EXPECT_EQ(bench::diffServeMetrics(legacy.run(trace),
                                          event.run(trace)),
                  "");
    }
}

/**
 * Cache transparency: calibrating with the CostTableCache disabled
 * (every Evaluator table recomputed) and calibrating through the
 * cache produce bitwise-identical construction reports and replay
 * metrics.  The disabled run goes first so this test cannot be
 * satisfied by two hits on one stale entry.
 */
TEST(ReplayDiff, CostTableCacheIsObservablyTransparent)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = diffWorkload();
    const auto opts = fleetOptions(serve::SimCoreKind::EventHeap);
    const auto trace = serve::generateWorkload(wl, 5);
    fleet::FleetRunOptions run;
    run.policy = fleet::PolicyKind::PowerOfTwo;
    run.seed = 5;

    const auto build = [&]() {
        obs::Registry local;
        fleet::FleetMetrics m;
        std::string construction;
        {
            obs::ScopedRegistry scope(local);
            const auto fleet = fleet::FleetSimulator::uniform(
                2, cluster, cfg, wl, opts);
            construction =
                obs::RunReport::capture(local).toString();
            m = fleet.run(trace, run);
        }
        return std::make_pair(
            construction + "\n---\n"
                + obs::RunReport::capture(local).toString(),
            std::move(m));
    };

    std::string uncached_report;
    fleet::FleetMetrics uncached_metrics;
    {
        costmodel::CostTableCacheDisabled off;
        std::tie(uncached_report, uncached_metrics) = build();
    }
    const auto [cached_report, cached_metrics] = build();
    EXPECT_EQ(uncached_report, cached_report)
        << obs::RunReport::diff(uncached_report, cached_report);
    EXPECT_EQ(
        bench::diffFleetMetrics(uncached_metrics, cached_metrics),
        "");
}

} // namespace
} // namespace transfusion
