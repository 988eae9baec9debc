/**
 * @file
 * Figure 13: energy breakdown across the memory hierarchy (DRAM,
 * global buffer, register file, PE arrays) for TransFusion (a) and
 * FuseMax (b) on Llama3, cloud and edge, across sequence lengths.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"

namespace
{

void
breakdownTable(const char *arch_name,
               transfusion::schedule::StrategyKind kind,
               const transfusion::bench::BenchArgs &args)
{
    using namespace transfusion;
    const auto arch = arch::archByName(arch_name);
    const auto cfg = model::llama3_8b();
    std::cout << "[" << schedule::toString(kind) << " on "
              << arch.toString() << "]\n";

    Table t({ "seq", "DRAM", "GlobalBuffer", "RegisterFile",
              "PE" });
    for (std::int64_t seq : sim::paperSequenceSweep()) {
        const auto all = bench::evaluatePoint(arch, cfg, seq);
        const auto &e = all.at(kind).total.energy;
        const double total = e.total();
        t.addRow({ bench::seqLabel(seq),
                   Table::cell(100 * e.dram_j / total, 1) + "%",
                   Table::cell(100 * e.buffer_j / total, 1) + "%",
                   Table::cell(100 * e.rf_j / total, 1) + "%",
                   Table::cell(100 * e.pe_j / total, 1) + "%" });
    }
    bench::printTable(t, args, std::cout);
    std::cout << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace transfusion;
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Figure 13",
        "Energy breakdown across the memory hierarchy for "
        "TransFusion (a) and FuseMax (b), Llama3");

    for (auto kind : { schedule::StrategyKind::TransFusion,
                       schedule::StrategyKind::FuseMax }) {
        for (const auto *arch_name : { "cloud", "edge" })
            breakdownTable(arch_name, kind, args);
    }
    return 0;
}
