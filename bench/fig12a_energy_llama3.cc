/**
 * @file
 * Figure 12a: Llama3 energy consumption relative to Unfused across
 * sequence lengths, cloud and edge.
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
        "Figure 12a",
        "Llama3 energy relative to Unfused (lower is better) "
        "across sequence lengths");

    const auto cfg = model::llama3_8b();
    for (const auto *arch_name : { "cloud", "edge" }) {
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
