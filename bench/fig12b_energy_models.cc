/**
 * @file
 * Figure 12b: model-wise energy relative to Unfused at 64K, cloud
 * and edge.
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
        "Figure 12b",
        "Model-wise energy relative to Unfused at 64K (lower is "
        "better)");

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
                row.push_back(Table::cell(
                    sim::energyRatio(base, all.at(kind)), 3));
            }
            t.addRow(row);
        }
        bench::printTable(t, args, std::cout);
        std::cout << "\n";
    }
    return 0;
}
