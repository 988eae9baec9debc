/**
 * @file
 * Fleet-serving walkthrough: eight single-chip edge replicas
 * behind the round-robin router absorb a mid-trace replica
 * loss.  Replica 3's chip dies 30% of the way through the healthy
 * makespan and comes back at 70%; the fleet drains its in-flight
 * and queued work, re-routes every drained request to a healthy
 * replica after a capped backoff, and keeps serving — no request
 * is terminally rejected.  Everything is deterministic: rerunning
 * prints the same table bit-for-bit.
 *
 * Build: cmake --build build --target fleet_demo
 * Run:   ./build/examples/fleet_demo
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "fleet/fleet_sim.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    bench::rejectSurplusArgs(argc, argv, 0, "");

    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();

    serve::WorkloadOptions wl;
    wl.arrival_per_s = 128.0; // keeps every replica busy
    wl.requests = 96;
    wl.prompt = { 128, 512 };
    wl.output = { 64, 192 };

    fleet::FleetOptions opts;
    opts.serve.max_batch = 4;
    opts.serve.cost.evaluator.mcts.iterations = 64;

    const auto fleet =
        fleet::FleetSimulator::uniform(8, cluster, cfg, wl, opts);
    const auto trace = serve::generateWorkload(wl, /*seed=*/7);

    fleet::FleetRunOptions healthy_run;
    healthy_run.policy = fleet::PolicyKind::RoundRobin;
    const auto healthy = fleet.run(trace, healthy_run);

    // Replica 3 loses its only chip 30% of the way through the
    // healthy makespan and recovers at 70%; in between it is
    // unroutable and its work fails over to the other seven.
    fault::FaultSchedule outage;
    outage.events.push_back({ 0.3 * healthy.makespan_s,
                              fault::FaultKind::ChipLoss, 0 });
    outage.events.push_back({ 0.7 * healthy.makespan_s,
                              fault::FaultKind::ChipRecovery, 0 });
    fleet::FleetRunOptions faulted_run = healthy_run;
    faulted_run.faults.resize(4);
    faulted_run.faults[3] = outage;

    std::cout << "Serving " << trace.size() << " requests of "
              << cfg.name << " on 8 x " << cluster.toString()
              << "\nPolicy "
              << fleet::toString(healthy_run.policy) << "; "
              << outage.toString() << " on replica 3\n\n";

    const auto faulted = fleet.run(trace, faulted_run);

    Table t({ "run", "completed", "rejected", "completed/s",
              "failover", "rerouted", "downs", "lat p99" });
    const auto row = [&t](const char *name,
                          const fleet::FleetMetrics &m) {
        t.addRow({
            name,
            std::to_string(m.completed),
            std::to_string(m.rejected),
            Table::cell(m.completed_per_second, 2),
            std::to_string(m.failover_drained),
            std::to_string(m.failover_reroutes),
            std::to_string(m.replica_downs),
            formatSeconds(m.latency_s.percentileOr(99, 0)),
        });
    };
    row("healthy", healthy);
    row("replica-loss", faulted);
    t.print(std::cout);

    std::cout << "\nPer-replica completions (replica-loss run):\n";
    for (std::size_t i = 0; i < faulted.replicas.size(); ++i)
        std::cout << "  replica " << i << ": "
                  << faulted.replicas[i].completed << " completed, "
                  << faulted.replicas[i].generated_tokens
                  << " tokens\n";

    std::cout << "\n"
              << faulted.summary() << "\n"
              << "The outage is absorbed by failover: "
              << faulted.failover_drained
              << " requests were pulled off the lost replica and "
                 "every one finished elsewhere — "
              << faulted.rejected << " terminal rejections.\n";
    return faulted.rejected == 0 ? 0 : 1;
}
