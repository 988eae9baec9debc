/**
 * @file
 * Multi-chip walkthrough: build a custom 4-chip cluster out of the
 * edge64 NPU, inspect the ring-collective prices the sharders pay,
 * search every feasible (tp, pp) carving of Llama3-8B over it, and
 * compare serving one sharded replica against what a single chip
 * could hold.  Everything is data -- no library changes needed to
 * describe a new fabric.
 */

#include <iostream>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "multichip/shard_plan.hh"
#include "multichip/sharded_serve.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    bench::rejectSurplusArgs(argc, argv, 0, "");

    // 1. A custom fabric: eight edge64 NPUs on a PCB-level ring a
    //    little faster than the stock edge preset.  Llama3-8B's
    //    weights dwarf one mobile NPU's DRAM, so the cluster is
    //    the only way to serve it at the edge at all.
    multichip::LinkConfig link;
    link.bandwidth_bytes_per_sec = 8e9;
    link.latency_s = 3e-6;
    link.pj_per_byte = 60.0;
    link.topology = multichip::Topology::Ring;
    const auto cluster = multichip::homogeneousCluster(
        arch::edgeArch64(), 8, link, "edge-board");
    cluster.validate();
    std::cout << "Cluster: " << cluster.toString() << "\n\n";

    // 2. What do the collectives cost on this fabric?  One
    //    all-reduce of a batch-64 x 4096 x 4096 activation:
    const double payload = 64.0 * 4096.0 * 4096.0 * 2.0;
    Table ct({ "collective", "per-chip GB", "time", "energy" });
    for (const auto kind :
         { multichip::CollectiveKind::AllReduce,
           multichip::CollectiveKind::AllGather,
           multichip::CollectiveKind::ReduceScatter,
           multichip::CollectiveKind::PointToPoint }) {
        const auto c = multichip::collectiveCost(
            kind, payload, cluster.size(), cluster.link);
        ct.addRow({ multichip::toString(kind),
                    Table::cell(c.bytes_per_chip / 1e9, 2),
                    formatSeconds(c.seconds),
                    formatJoules(c.energy_j) });
    }
    ct.print(std::cout);
    std::cout << "\n";

    // 3. Search every feasible (tp, pp) carving for TransFusion.
    const auto stack = model::decoderOnly(model::llama3_8b());
    multichip::ShardPlanOptions opts;
    opts.evaluator.mcts.iterations = 256;
    const auto plan = multichip::planShards(
        cluster, stack, 4096, 4096,
        schedule::StrategyKind::TransFusion, opts);

    Table t({ "tp", "pp", "latency", "steady-state", "link GB",
              "energy" });
    for (const auto &e : plan.entries) {
        t.addRow({
            std::to_string(e.spec.tp),
            std::to_string(e.spec.pp)
                + (&e == &plan.bestEntry() ? "*" : ""),
            formatSeconds(e.result.latency_s),
            formatSeconds(e.result.steady_state_s),
            Table::cell(
                (e.result.tp_collectives.total_link_bytes
                 + e.result.pipeline.transfers.total_link_bytes)
                    / 1e9,
                2),
            formatJoules(e.result.cluster_energy_j),
        });
    }
    t.print(std::cout);
    std::cout << "(* = best carving by steady-state time)\n\n";

    // 4. Serving: the sharded replica's KV budget aggregates over
    //    all eight chips' DRAM minus their weight shards -- a
    //    single edge chip cannot even hold the weights.
    const auto &best = plan.bestEntry();
    const double kv_cluster = multichip::shardedKvCapacityWords(
        cluster, stack.block, best.spec);
    const double weight_gb = serve::weightWords(stack.block)
        * static_cast<double>(
              cluster.chips.front().element_bytes)
        / 1e9;
    const double chip_gb = serve::defaultDramCapacityBytes(
                               cluster.chips.front())
        / 1e9;
    std::cout << "KV budget of the " << best.spec.toString()
              << " replica: "
              << formatQuantity(
                     static_cast<std::int64_t>(kv_cluster))
              << " words (weights: " << Table::cell(weight_gb, 1)
              << " GB across the cluster; one chip has only "
              << Table::cell(chip_gb, 1) << " GB of DRAM)\n";
    return 0;
}
