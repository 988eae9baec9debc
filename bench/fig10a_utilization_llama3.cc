/**
 * @file
 * Figure 10a: 1D and 2D PE-array utilization for Llama3 across
 * sequence lengths on the cloud architecture (edge shown too for
 * the mirrored Sec. 6.2 discussion).
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
        "Figure 10a",
        "PE-array utilization (percent of peak) for Llama3 across "
        "sequence lengths");

    const auto cfg = model::llama3_8b();
    for (const auto *arch_name : { "cloud", "edge" }) {
        const auto arch = arch::archByName(arch_name);
        std::cout << "[" << arch.toString() << "]\n";

        std::vector<std::string> headers{ "seq" };
        for (auto kind : bench::figureStrategies()) {
            headers.push_back(schedule::toString(kind) + " 2D");
            headers.push_back(schedule::toString(kind) + " 1D");
        }
        Table t(headers);

        for (std::int64_t seq : sim::paperSequenceSweep()) {
            const auto all = bench::evaluatePoint(arch, cfg, seq);
            std::vector<std::string> row{ bench::seqLabel(seq) };
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
        std::cout << "\n";
    }
    return 0;
}
