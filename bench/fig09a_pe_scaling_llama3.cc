/**
 * @file
 * Figure 9a: impact of the edge 2D PE array size (32x32 and 64x64,
 * the latter with an 8 MB buffer) on Llama3 speedup over Unfused
 * across sequence lengths.
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
        "Figure 9a",
        "Llama3 speedup over Unfused on edge variants with 32x32 "
        "and 64x64 2D PE arrays");

    const auto cfg = model::llama3_8b();
    for (const auto *arch_name : { "edge32", "edge64" }) {
        const auto arch = arch::archByName(arch_name);
        std::cout << "[" << arch.toString() << "]\n";

        std::vector<std::string> headers{ "seq" };
        for (auto kind : bench::figureStrategies())
            headers.push_back(schedule::toString(kind));
        Table t(headers);

        for (std::int64_t seq : sim::paperSequenceSweep()) {
            const auto all = bench::evaluatePoint(arch, cfg, seq);
            const auto &base =
                all.at(schedule::StrategyKind::Unfused);
            std::vector<std::string> row{ bench::seqLabel(seq) };
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
