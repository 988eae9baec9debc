/**
 * @file
 * Figure 11: layer-wise speedup-contribution breakdown (Eq. 47-48)
 * of TransFusion over FuseMax on Llama3 across sequence lengths,
 * cloud and edge.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "model/cascades.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Figure 11",
        "Speedup contribution (Eq. 47-48) per sub-layer, "
        "TransFusion over FuseMax, Llama3");

    const auto cfg = model::llama3_8b();
    for (const auto *arch_name : { "cloud", "edge" }) {
        const auto arch = arch::archByName(arch_name);
        std::cout << "[" << arch.toString() << "]\n";

        Table t({ "seq", "QKV", "MHA", "LayerNorm", "FFN" });
        for (std::int64_t seq : sim::paperSequenceSweep()) {
            const auto all = bench::evaluatePoint(arch, cfg, seq);
            const auto c = sim::speedupContribution(
                all.at(schedule::StrategyKind::FuseMax),
                all.at(schedule::StrategyKind::TransFusion));
            t.addRow({ bench::seqLabel(seq),
                       Table::cell(100 * c[0], 1) + "%",
                       Table::cell(100 * c[1], 1) + "%",
                       Table::cell(100 * c[2], 1) + "%",
                       Table::cell(100 * c[3], 1) + "%" });
        }
        bench::printTable(t, args, std::cout);
        std::cout << "\n";
    }
    return 0;
}
