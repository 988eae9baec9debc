/**
 * @file
 * Minimal tour of the serving simulator: generate a Poisson
 * request trace, replay it under two strategies on the edge
 * architecture, and print the SLO metrics a capacity planner would
 * look at (TTFT, TPOT, p99 latency, shed load).
 *
 * Build: cmake --build build --target serve_demo
 * Run:   ./build/examples/serve_demo
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "serve/simulator.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    bench::rejectSurplusArgs(argc, argv, 0, "");

    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();

    // A small trace: ~2 requests/s of chat-sized prompts.
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 2.0;
    wl.requests = 96;
    wl.prompt = { 128, 1024 };
    wl.output = { 16, 128 };
    const auto trace = serve::generateWorkload(wl, /*seed=*/42);

    std::cout << "Serving " << trace.size() << " requests of "
              << cfg.name << " on " << arch.toString() << "\n"
              << "first: " << trace.front().toString() << "\n\n";

    Table t({ "system", "tok/s", "TTFT p50", "TPOT p50", "lat p99",
              "peak batch", "rejected" });
    for (auto kind : { schedule::StrategyKind::Unfused,
                       schedule::StrategyKind::TransFusion }) {
        serve::ServeOptions opts;
        opts.strategy = kind;
        opts.max_batch = 8;
        opts.cost.evaluator.mcts.iterations = 256;
        const serve::ServeSimulator sim(arch, cfg, wl, opts);
        const auto m = sim.run(trace);
        t.addRow({
            schedule::toString(kind),
            m.makespan_s > 0
                ? Table::cell(m.tokens_per_second, 1)
                : "-",
            m.ttft_s.empty()
                ? "-"
                : formatSeconds(m.ttft_s.percentileOr(50, 0)),
            m.tpot_s.empty()
                ? "-"
                : formatSeconds(m.tpot_s.percentileOr(50, 0)),
            m.latency_s.empty()
                ? "-"
                : formatSeconds(m.latency_s.percentileOr(99, 0)),
            std::to_string(m.peak_running),
            std::to_string(m.rejected),
        });
    }
    t.print(std::cout);
    std::cout << "\nSame trace, same admission policy -- the "
                 "strategy only changes the per-iteration costs, "
                 "so the gap is the fleet-level value of fusion.\n";
    return 0;
}
