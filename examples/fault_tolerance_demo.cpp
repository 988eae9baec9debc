/**
 * @file
 * Fault-tolerance walkthrough: serve a small trace on a 4-chip
 * cloud cluster, hand-write a fault schedule (a chip dies
 * mid-trace and comes back), and watch the server drain the
 * in-flight batch, re-carve the surviving 3 chips with planShards,
 * retry the evicted requests with backoff, and restore the
 * original sharding on recovery.  Everything is deterministic:
 * rerunning prints the same table bit-for-bit.
 *
 * Build: cmake --build build --target fault_tolerance_demo
 * Run:   ./build/examples/fault_tolerance_demo
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "fault/fault_server.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    bench::rejectSurplusArgs(argc, argv, 0, "");

    const auto cluster = multichip::cloudCluster(4);
    const auto cfg = model::llama3_8b();

    serve::WorkloadOptions wl;
    wl.arrival_per_s = 3.0;
    wl.requests = 32;
    wl.prompt = { 256, 1024 };
    wl.output = { 32, 96 };

    fault::FaultServeOptions opts;
    opts.serve.max_batch = 8;
    opts.serve.cost.evaluator.mcts.iterations = 128;
    opts.initial_spec = { 2, 2 };

    const fault::FaultTolerantServer server(cluster, cfg, wl,
                                            opts);
    const auto trace = serve::generateWorkload(wl, /*seed=*/7);
    const auto healthy = server.run(trace, {});

    // Chip 1 dies 30% of the way through the healthy makespan and
    // recovers at 70%.  Between the two events the replica runs a
    // re-planned (tp, pp) over chips {0, 2, 3}.
    fault::FaultSchedule schedule;
    const double t_loss = 0.3 * healthy.serve.makespan_s;
    const double t_back = 0.7 * healthy.serve.makespan_s;
    schedule.events.push_back(
        { t_loss, fault::FaultKind::ChipLoss, 1 });
    schedule.events.push_back(
        { t_back, fault::FaultKind::ChipRecovery, 1 });

    std::cout << "Serving " << trace.size() << " requests of "
              << cfg.name << " on " << cluster.toString() << "\n"
              << "Healthy sharding "
              << server.initialSpec().toString() << "; "
              << schedule.toString() << "\n\n";

    const auto faulted = server.run(trace, schedule);

    Table t({ "run", "tok/s", "completed", "rejected",
              "evictions", "retries", "replans", "degraded" });
    const auto row = [&t](const char *name,
                          const fault::FaultServeMetrics &m) {
        t.addRow({
            name,
            Table::cell(m.serve.tokens_per_second, 1),
            std::to_string(m.serve.completed),
            std::to_string(m.serve.rejected),
            std::to_string(m.evictions),
            std::to_string(m.retries),
            std::to_string(m.replans),
            formatSeconds(m.degraded_s),
        });
    };
    row("healthy", healthy);
    row("chip-loss", faulted);
    t.print(std::cout);

    std::cout << "\nHealth windows:\n";
    for (std::size_t i = 0; i < faulted.windows.size(); ++i) {
        const auto &w = faulted.windows[i];
        std::cout << "  [" << formatSeconds(w.start_s) << ", "
                  << formatSeconds(w.end_s) << "): " << w.chips
                  << " chips, "
                  << (w.outage ? std::string("outage")
                               : w.spec.toString())
                  << ", " << w.tokens << " tokens\n";
    }
    std::cout << "\n"
              << faulted.summary() << "\n"
              << "The eviction is not data loss: every request is "
                 "completed or explicitly rejected, and "
              << faulted.retry_completed
              << " evicted/shed requests finished on retry.\n";
    return 0;
}
