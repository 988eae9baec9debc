/**
 * @file
 * DPipe schedule viewer: builds a sub-layer's Einsum cascade, dumps
 * the dependency DAG (Graphviz), enumerates the valid bipartitions
 * (Fig. 7), and prints the chosen steady-state DP schedule with per
 * -op placement and timing -- the complete Sec. 4 pipeline, exposed
 * through the public API.
 *
 * Usage: dpipe_schedule_viewer [layer=MHA] [arch=cloud]
 *                              [seq=4096] [trace.json]
 *
 * With a fourth argument, also writes the pipelined plan as
 * Chrome-tracing JSON (open in chrome://tracing or perfetto).
 */

#include <cstdlib>
#include <fstream>
#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "dpipe/pipeline.hh"
#include "dpipe/trace.hh"
#include "model/cascades.hh"

namespace
{

transfusion::model::LayerKind
layerByName(const std::string &name)
{
    using transfusion::model::LayerKind;
    for (auto kind : transfusion::model::allLayerKinds()) {
        if (transfusion::model::toString(kind) == name)
            return kind;
    }
    std::cerr << "unknown layer '" << name
              << "' (use QKV, MHA, LayerNorm or FFN)\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace transfusion;

    bench::rejectSurplusArgs(argc, argv, 4,
                             "[layer=MHA] [arch=cloud] "
                             "[seq=4096] [trace.json]");
    const model::LayerKind kind =
        layerByName(argc > 1 ? argv[1] : "MHA");
    const arch::ArchConfig arch =
        bench::archArg(argv[0], argc > 2 ? argv[2] : "cloud");
    const std::int64_t seq =
        argc > 3 ? bench::intArg(argv[0], "seq", argv[3]) : 4096;

    const model::TransformerConfig cfg = model::bertBase();
    const std::int64_t m0 =
        std::min<std::int64_t>(seq, arch.pe2d.cols);
    const auto dims = model::makeDims(cfg, seq, m0, seq / m0);
    const auto cascade = model::buildCascade(kind, cfg);
    const auto dag = cascade.buildDag();

    std::cout << "== cascade ==\n" << cascade.toString() << "\n";
    std::cout << "== dependency DAG (graphviz) ==\n"
              << dag.toDot(cascade.opNames()) << "\n";

    const auto parts = dpipe::enumerateBipartitions(dag);
    std::cout << "== " << parts.size()
              << " valid bipartitions (constraints 1-4) ==\n";
    for (std::size_t i = 0; i < parts.size() && i < 8; ++i) {
        std::cout << "  partition " << i << ": first = {";
        bool first_item = true;
        for (int v = 0; v < dag.nodeCount(); ++v) {
            if (parts[i].in_first[static_cast<std::size_t>(v)]) {
                std::cout << (first_item ? "" : ", ")
                          << cascade.opNames()[
                                 static_cast<std::size_t>(v)];
                first_item = false;
            }
        }
        std::cout << "}\n";
    }
    if (parts.size() > 8)
        std::cout << "  ... (" << parts.size() - 8 << " more)\n";

    const auto plan = dpipe::schedulePipeline(
        cascade, dims, arch, model::peMapping(kind));
    std::cout << "\n== DPipe plan ==\n"
              << "epochs:        " << plan.epochs << "\n"
              << "pipelined:     "
              << (plan.pipelined ? "yes" : "no (fallback)") << "\n"
              << "steady epoch:  "
              << formatSeconds(plan.steady_epoch_seconds) << "\n"
              << "fill / drain:  "
              << formatSeconds(plan.fill_seconds) << " / "
              << formatSeconds(plan.drain_seconds) << "\n"
              << "total:         "
              << formatSeconds(plan.total_seconds) << "\n"
              << "2D / 1D busy:  "
              << formatSeconds(plan.work.busy_2d_s) << " / "
              << formatSeconds(plan.work.busy_1d_s) << "\n\n";

    std::cout << "== steady-state schedule ==\n";
    auto names = cascade.opNames();
    names.push_back("ROOT");
    std::cout << plan.steady_schedule.toString(names);
    std::cout << "\n== steady-state gantt ==\n"
              << plan.steady_schedule.toGantt(names);

    if (argc > 4) {
        std::ofstream out(argv[4]);
        if (!out) {
            std::cerr << "cannot open '" << argv[4]
                      << "' for writing\n";
            return 1;
        }
        out << dpipe::toChromeTrace(plan, names);
        std::cout << "\nwrote Chrome trace to " << argv[4]
                  << " (open in chrome://tracing)\n";
    }
    return 0;
}
