/**
 * @file
 * Figure 8b: model-wise speedup over Unfused (BERT, TrXL, T5, XLM,
 * Llama3) at a 64K sequence length, cloud and edge.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Figure 8b",
        "Model-wise speedup over Unfused at 64K sequence length");

    const std::int64_t seq = 64 << 10;
    for (const auto *arch_name : { "cloud", "edge" }) {
        const auto arch = arch::archByName(arch_name);
        std::cout << "[" << arch.toString() << "]\n";

        std::vector<std::string> headers{ "model" };
        for (auto kind : bench::figureStrategies())
            headers.push_back(schedule::toString(kind));
        Table t(headers);

        for (const auto &cfg : model::allModels()) {
            const auto all = bench::evaluatePoint(arch, cfg, seq);
            const auto &base =
                all.at(schedule::StrategyKind::Unfused);
            std::vector<std::string> row{ cfg.name };
            for (auto kind : bench::figureStrategies()) {
                row.push_back(
                    Table::cell(sim::speedup(base, all.at(kind)), 2)
                    + "x");
            }
            t.addRow(row);
        }
        bench::printTable(t, args, std::cout);
        std::cout << "\n";
    }
    return 0;
}
