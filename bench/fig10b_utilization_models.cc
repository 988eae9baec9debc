/**
 * @file
 * Figure 10b: 1D/2D utilization per model at 64K sequence length
 * on the cloud architecture.
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
        "Figure 10b",
        "PE-array utilization (percent of peak) per model at 64K "
        "on the cloud architecture");

    const auto arch = arch::cloudArch();
    const std::int64_t seq = 64 << 10;

    std::vector<std::string> headers{ "model" };
    for (auto kind : bench::figureStrategies()) {
        headers.push_back(schedule::toString(kind) + " 2D");
        headers.push_back(schedule::toString(kind) + " 1D");
    }
    Table t(headers);

    for (const auto &cfg : model::allModels()) {
        const auto all = bench::evaluatePoint(arch, cfg, seq);
        std::vector<std::string> row{ cfg.name };
        for (auto kind : bench::figureStrategies()) {
            const auto &r = all.at(kind);
            row.push_back(
                Table::cell(100 * r.utilization2d(arch), 1));
            row.push_back(
                Table::cell(100 * r.utilization1d(arch), 1));
        }
        t.addRow(row);
    }
    bench::printTable(t, args, std::cout);
    return 0;
}
