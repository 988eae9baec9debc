/**
 * @file
 * Parameterized grid sweep: the evaluator's structural invariants
 * must hold at every (architecture, model, sequence) point the
 * benches visit -- positive metrics, roofline consistency, work
 * conservation between FuseMax and TransFusion, the strategy
 * ordering, and feasibility of the chosen tiles.  The paper's
 * qualitative claims -- the strict strategy ordering and latency
 * growing with sequence length -- are asserted over the full
 * headline grid.
 */

#include <gtest/gtest.h>

#include "bench_util.hh"
#include "schedule/sweep.hh"
#include "schedule/tiling.hh"
#include "sim/compare.hh"

namespace transfusion
{
namespace
{

using schedule::StrategyKind;

struct GridPoint
{
    const char *arch;
    const char *model;
    std::int64_t seq;
};

void
PrintTo(const GridPoint &p, std::ostream *os)
{
    *os << p.arch << "/" << p.model << "/P=" << p.seq;
}

class GridSweep : public ::testing::TestWithParam<GridPoint>
{};

TEST_P(GridSweep, InvariantsHoldEverywhere)
{
    const auto pt = GetParam();
    const auto arch = arch::archByName(pt.arch);
    const auto cfg = model::modelByName(pt.model);
    schedule::EvaluatorOptions opts;
    opts.mcts.iterations = 256;
    schedule::Evaluator eval(arch, cfg, pt.seq, opts);

    double prev_latency = 0;
    double fusemax_ops = 0, tf_ops = 0;
    for (auto kind : schedule::allStrategies()) {
        const auto r = eval.evaluate(kind);

        // Positive, roofline-consistent metrics per sub-layer.
        for (const auto &m : r.layers) {
            ASSERT_GT(m.latency_s, 0.0);
            ASSERT_GE(m.latency_s, m.compute_s - 1e-12);
            ASSERT_GE(m.latency_s, m.dram_s - 1e-12);
            ASSERT_GE(m.dram_bytes, 0.0);
            ASSERT_GT(m.energy.total(), 0.0);
        }

        // Utilizations are proper fractions.
        ASSERT_GE(r.utilization2d(arch), 0.0);
        ASSERT_LE(r.utilization2d(arch), 1.0 + 1e-9);
        ASSERT_GE(r.utilization1d(arch), 0.0);
        ASSERT_LE(r.utilization1d(arch), 1.0 + 1e-9);

        // Later strategies never lose to the Unfused baseline, and
        // TransFusion (last) is at least as fast as everything
        // before it (allowing numerical noise).
        if (kind == StrategyKind::Unfused)
            prev_latency = r.total.latency_s;
        ASSERT_LE(r.total.latency_s, prev_latency * 1.01)
            << toString(kind);
        if (kind == StrategyKind::TransFusion) {
            ASSERT_LT(r.total.latency_s, prev_latency);
            // The chosen tile must satisfy the Table 2 budget.
            ASSERT_TRUE(schedule::tileFeasible(r.tile, arch,
                                               pt.seq));
            tf_ops = r.total.ops_2d + r.total.ops_1d;
        }
        if (kind == StrategyKind::FuseMax)
            fusemax_ops = r.total.ops_2d + r.total.ops_1d;
        prev_latency = std::min(prev_latency, r.total.latency_s);
    }

    // Work conservation: FuseMax and TransFusion execute the same
    // mathematics.
    ASSERT_NEAR(fusemax_ops, tf_ops, 1e-6 * fusemax_ops);
}

INSTANTIATE_TEST_SUITE_P(
    ArchModelSeqGrid, GridSweep,
    ::testing::Values(
        GridPoint{ "cloud", "BERT", 1 << 10 },
        GridPoint{ "cloud", "BERT", 1 << 16 },
        GridPoint{ "cloud", "TrXL", 1 << 14 },
        GridPoint{ "cloud", "T5", 1 << 12 },
        GridPoint{ "cloud", "XLM", 1 << 16 },
        GridPoint{ "cloud", "Llama3", 1 << 12 },
        GridPoint{ "cloud", "Llama3", 1 << 18 },
        GridPoint{ "edge", "BERT", 1 << 10 },
        GridPoint{ "edge", "BERT", 1 << 16 },
        GridPoint{ "edge", "TrXL", 1 << 12 },
        GridPoint{ "edge", "T5", 1 << 16 },
        GridPoint{ "edge", "XLM", 1 << 14 },
        GridPoint{ "edge", "Llama3", 1 << 16 },
        GridPoint{ "edge32", "BERT", 1 << 14 },
        GridPoint{ "edge32", "Llama3", 1 << 12 },
        GridPoint{ "edge64", "T5", 1 << 14 },
        GridPoint{ "edge64", "Llama3", 1 << 16 }));

/**
 * The headline grid (cloud/edge x every model x the paper's
 * sequence sweep), evaluated exactly as headline_geomean does:
 * at every point latency orders Unfused > FLAT > FuseMax >=
 * FuseMax+LayerFuse > TransFusion, and every (arch, model,
 * strategy) series grows strictly with sequence length.
 */
TEST(PaperClaims, OrderingAndSequenceTrendsHoldOnTheHeadlineGrid)
{
    const schedule::Sweep sweep(bench::sweepOptions());
    const std::vector<std::int64_t> seqs = sim::paperSequenceSweep();
    const auto metrics = sweep.run(schedule::Sweep::grid(
        { arch::cloudArch(), arch::edgeArch() }, model::allModels(),
        seqs));
    ASSERT_EQ(metrics.size(), 2 * model::allModels().size()
                                  * seqs.size());

    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const schedule::StrategyMetrics &m = metrics[i];
        SCOPED_TRACE(m.point.label());
        const auto latency = [&](StrategyKind kind) {
            return m.at(kind).total.latency_s;
        };
        EXPECT_GT(latency(StrategyKind::Unfused),
                  latency(StrategyKind::Flat));
        EXPECT_GT(latency(StrategyKind::Flat),
                  latency(StrategyKind::FuseMax));
        EXPECT_GE(latency(StrategyKind::FuseMax),
                  latency(StrategyKind::FuseMaxLayerFuse));
        EXPECT_GT(latency(StrategyKind::FuseMaxLayerFuse),
                  latency(StrategyKind::TransFusion));

        // The grid is (arch, model)-major with S ascending, so the
        // previous point is the same series at the next-shorter S.
        if (i % seqs.size() == 0)
            continue;
        for (const StrategyKind kind : schedule::allStrategies())
            EXPECT_LT(metrics[i - 1].at(kind).total.latency_s,
                      latency(kind))
                << toString(kind);
    }
}

} // namespace
} // namespace transfusion
