/**
 * @file
 * Quickstart: evaluate one Transformer model on one architecture
 * and print the paper's headline comparison -- end-to-end latency,
 * speedup over the Unfused baseline, energy, and PE utilization for
 * each of the five systems.
 *
 * Usage: quickstart [arch=cloud] [model=Llama3] [seq=65536]
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "sim/compare.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;

    bench::rejectSurplusArgs(argc, argv, 3,
                             "[arch=cloud] [model=Llama3] [seq=65536]");
    const arch::ArchConfig arch =
        bench::archArg(argv[0], argc > 1 ? argv[1] : "cloud");
    const model::TransformerConfig cfg =
        bench::modelArg(argv[0], argc > 2 ? argv[2] : "Llama3");
    const std::int64_t seq =
        argc > 3 ? bench::intArg(argv[0], "seq", argv[3]) : 65536;

    std::cout << "TransFusion quickstart\n"
              << "  arch:  " << arch.toString() << "\n"
              << "  model: " << cfg.name << " (L=" << cfg.layers
              << " D=" << cfg.d_model << " H=" << cfg.heads
              << " S=" << cfg.ffn_hidden << ")\n"
              << "  seq:   " << formatQuantity(seq) << ", batch "
              << cfg.batch << "\n\n";

    const auto results = sim::evaluateAll(arch, cfg, seq);
    const auto &base = results.at(schedule::StrategyKind::Unfused);

    Table t({ "system", "latency", "speedup", "energy", "util2D",
              "util1D" });
    for (auto kind : schedule::allStrategies()) {
        const auto &r = results.at(kind);
        t.addRow({
            schedule::toString(kind),
            formatSeconds(r.total.latency_s),
            Table::cell(sim::speedup(base, r), 2) + "x",
            formatJoules(r.total.energy.total()),
            Table::cell(100 * r.utilization2d(arch), 1) + "%",
            Table::cell(100 * r.utilization1d(arch), 1) + "%",
        });
    }
    t.print(std::cout);

    const auto &tf = results.at(schedule::StrategyKind::TransFusion);
    std::cout << "\nTransFusion outer tile: " << tf.tile.toString()
              << "\n";
    return 0;
}
