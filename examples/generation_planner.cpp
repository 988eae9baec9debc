/**
 * @file
 * Generation planner: prices an autoregressive serving workload
 * (prefill + token-by-token decode with a KV cache) for a model on
 * an accelerator, and shows where the time goes -- the classic
 * "prefill is compute-bound, decode is bandwidth-bound" split, with
 * TransFusion's fusion/pipelining gains concentrated in prefill.
 *
 * Usage: generation_planner [model=Llama3] [arch=cloud]
 *                           [prompt=4096] [tokens=512]
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "schedule/decode.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;

    bench::rejectSurplusArgs(argc, argv, 4,
                             "[model=Llama3] [arch=cloud] "
                             "[prompt=4096] [tokens=512]");
    const auto cfg =
        bench::modelArg(argv[0], argc > 1 ? argv[1] : "Llama3");
    const auto arch =
        bench::archArg(argv[0], argc > 2 ? argv[2] : "cloud");
    const std::int64_t prompt =
        argc > 3 ? bench::intArg(argv[0], "prompt", argv[3]) : 4096;
    const std::int64_t tokens =
        argc > 4 ? bench::intArg(argv[0], "tokens", argv[4]) : 512;

    std::cout << "Generation plan: " << cfg.name << " on "
              << arch.toString() << "\n"
              << "  prompt " << formatQuantity(prompt)
              << " tokens, generate " << tokens
              << " tokens, batch " << cfg.batch << "\n\n";

    schedule::EvaluatorOptions opts;
    opts.mcts.iterations = 1024;
    schedule::DecodeEvaluator eval(arch, cfg,
                                   { prompt, tokens }, opts);

    Table t({ "system", "prefill", "decode", "s/step",
              "tok/s (batch)", "energy" });
    for (auto kind : schedule::allStrategies()) {
        const auto r = eval.evaluate(kind);
        t.addRow({
            schedule::toString(kind),
            formatSeconds(r.prefill.latency_s),
            formatSeconds(r.decode.latency_s),
            formatSeconds(r.seconds_per_step),
            Table::cell(r.tokens_per_second, 1),
            formatJoules(r.total.energy.total()),
        });
    }
    t.print(std::cout);

    const auto tf =
        eval.evaluate(schedule::StrategyKind::TransFusion);
    std::cout << "\nTransFusion decode phase: "
              << Table::cell(tf.decode.dram_s
                                 / tf.decode.compute_s, 1)
              << "x more DRAM time than compute (bandwidth-bound; "
                 "fusion cannot help what the KV cache must "
                 "stream).\n";
    return 0;
}
