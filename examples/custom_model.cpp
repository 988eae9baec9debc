/**
 * @file
 * Extensibility walkthrough: define a model that is not in the
 * zoo (a GPT-2-XL-shaped decoder) and a custom accelerator (a
 * mid-range 128x128 NPU), then run the full TransFusion pipeline
 * on them -- no library changes needed, everything is data.
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
    bench::rejectSurplusArgs(argc, argv, 0, "");

    // 1. A custom workload: GPT-2-XL-like decoder shapes.
    model::TransformerConfig gpt2xl;
    gpt2xl.name = "GPT2-XL";
    gpt2xl.layers = 48;
    gpt2xl.d_model = 1600;
    gpt2xl.heads = 25;
    gpt2xl.head_dim = 64;
    gpt2xl.ffn_hidden = 6400;
    gpt2xl.activation = einsum::UnaryOp::Gelu;
    gpt2xl.batch = 16;
    gpt2xl.validate();

    // 2. A custom accelerator between the paper's cloud and edge.
    arch::ArchConfig npu;
    npu.name = "midrange-npu";
    npu.pe2d = { 128, 128 };
    npu.pe1d = 256;
    npu.buffer_bytes = std::int64_t{8} << 20;
    npu.dram_bytes_per_sec = 120e9;
    npu.clock_hz = 800e6;
    npu.energy.buffer_pj = 4.0;
    npu.energy.dram_pj_per_byte = 60.0;
    npu.validate();

    std::cout << "Custom evaluation: " << gpt2xl.name << " on "
              << npu.toString() << "\n\n";

    // 3. Full pipeline, exactly as for the paper's points.
    for (std::int64_t seq : { std::int64_t{2048},
                              std::int64_t{32768} }) {
        const auto all = sim::evaluateAll(npu, gpt2xl, seq);
        const auto &base = all.at(schedule::StrategyKind::Unfused);

        std::cout << "[P = " << formatQuantity(seq) << "]\n";
        Table t({ "system", "latency", "speedup", "energy",
                  "DRAM GB" });
        for (auto kind : schedule::allStrategies()) {
            const auto &r = all.at(kind);
            t.addRow({
                schedule::toString(kind),
                formatSeconds(r.total.latency_s),
                Table::cell(sim::speedup(base, r), 2) + "x",
                formatJoules(r.total.energy.total()),
                Table::cell(r.total.dram_bytes / 1e9, 1),
            });
        }
        t.print(std::cout);
        const auto &tf =
            all.at(schedule::StrategyKind::TransFusion);
        std::cout << "TransFusion tile: " << tf.tile.toString()
                  << "\n\n";
    }
    return 0;
}
