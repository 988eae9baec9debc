/**
 * @file
 * Capacity-planning walkthrough: ask the planner for the cheapest
 * edge deployment of T5-small that keeps p99 request latency under
 * a bound with zero load shedding, then re-simulate the winning
 * spec to show the feasibility claim survives an independent
 * replay — the planner prices candidates with the same fleet
 * simulator the rest of the stack uses, so nothing is lost in
 * translation.  Deterministic: rerunning prints the same plan
 * bit-for-bit.
 *
 * Build: cmake --build build --target capacity_planner
 * Run:   ./build/examples/capacity_planner
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "plan/planner.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    bench::rejectSurplusArgs(argc, argv, 0, "");

    const auto cfg = model::t5Small();

    serve::WorkloadOptions wl;
    wl.arrival_per_s = 40.0;
    wl.requests = 96;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };

    plan::SloSpec slo;
    slo.p99_latency_s = 2.0;
    slo.max_reject_rate = 0.0;

    plan::PlannerOptions opts;
    opts.serve.max_batch = 4;
    opts.serve.cost.cache_samples = 3;
    opts.serve.cost.prefill_samples = 3;
    opts.serve.cost.evaluator.mcts.iterations = 32;

    plan::SearchSpace space;
    space.clusters = { "edge" };
    space.chip_counts = { 1, 2 };
    space.replica_counts = { 1, 2, 4 };
    space.policies = { fleet::PolicyKind::RoundRobin };

    const std::uint64_t seed = 7;
    const plan::CapacityPlanner planner(cfg, wl, slo, opts);
    const plan::PlanResult result = planner.plan(space, seed);

    std::cout << "Planning " << cfg.name << " at "
              << wl.arrival_per_s << " req/s under SLO "
              << slo.toString() << "\n"
              << result.summary() << "\n\nFrontier:\n";
    Table t({ "deployment", "cost", "p99", "req/s", "best" });
    for (const std::size_t i : result.frontier) {
        const plan::CandidateOutcome &c = result.candidates[i];
        t.addRow({
            c.spec.toString(),
            Table::cell(c.objectives.cost, 2),
            formatSeconds(c.objectives.p99_latency_s),
            Table::cell(c.objectives.throughput_rps, 2),
            result.best && *result.best == i ? "*" : "",
        });
    }
    t.print(std::cout);

    if (!result.best) {
        std::cout << "\nNo candidate met the SLO — widen the "
                     "space or relax the bound.\n";
        return 1;
    }

    // Trust, then verify: rebuild the winning deployment from its
    // spec alone and replay the same trace.  The planner's claim
    // must reproduce exactly.
    const plan::CandidateOutcome &best = result.bestOutcome();
    const auto cluster = multichip::clusterByName(
        best.spec.cluster, best.spec.chips);
    fleet::FleetOptions fo;
    fo.serve = opts.serve;
    const auto fleet = fleet::FleetSimulator::uniform(
        best.spec.replicas, cluster, best.spec.shard, cfg, wl, fo);
    fleet::FleetRunOptions run;
    run.policy = best.spec.policy;
    run.seed = seed;
    const auto m =
        fleet.run(serve::generateWorkload(wl, seed), run);
    const double p99 = m.latency_s.percentileOr(99, 0);

    std::cout << "\nRe-simulated best spec "
              << best.spec.toString() << ": p99 "
              << formatSeconds(p99) << " (bound "
              << formatSeconds(slo.p99_latency_s) << "), "
              << m.rejected << " rejected, energy "
              << Table::cell(m.energy_j, 2) << " J over "
              << Table::cell(m.chip_seconds, 2)
              << " chip-seconds\n";
    const bool holds =
        p99 <= slo.p99_latency_s && m.rejected == 0;
    std::cout << (holds ? "The planner's feasibility claim "
                          "reproduces outside the planner.\n"
                        : "MISMATCH: re-simulation violates the "
                          "SLO the planner promised.\n");
    return holds ? 0 : 1;
}
