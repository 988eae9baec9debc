/**
 * @file
 * Parameterized grid sweep: the evaluator's structural invariants
 * must hold at every (architecture, model, sequence) point the
 * benches visit -- positive metrics, roofline consistency, work
 * conservation between FuseMax and TransFusion, the strategy
 * ordering, and feasibility of the chosen tiles.  The paper's
 * qualitative claims -- the strict strategy ordering, latency
 * growing with sequence length, and the per-layer energy breakdown
 * summing to the total -- are asserted over the full headline
 * grid, and the grid's DPipe plans share one skeleton per layer
 * topology.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "bench_util.hh"
#include "dpipe/skeleton.hh"
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

/** The 60-point headline grid of headline_geomean. */
std::vector<schedule::StrategyMetrics>
runHeadlineGrid()
{
    const schedule::Sweep sweep(bench::sweepOptions());
    return sweep.run(schedule::Sweep::grid(
        { arch::cloudArch(), arch::edgeArch() }, model::allModels(),
        sim::paperSequenceSweep()));
}

/**
 * The headline grid (cloud/edge x every model x the paper's
 * sequence sweep), evaluated exactly as headline_geomean does:
 * at every point latency orders Unfused > FLAT > FuseMax >=
 * FuseMax+LayerFuse > TransFusion, and every (arch, model,
 * strategy) series grows strictly with sequence length.
 */
TEST(PaperClaims, OrderingAndSequenceTrendsHoldOnTheHeadlineGrid)
{
    const std::vector<std::int64_t> seqs = sim::paperSequenceSweep();
    const auto metrics = runHeadlineGrid();
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

/**
 * Fig. 12/13 report energy per sub-layer and in total: at every
 * headline point and for every strategy, the four sub-layers'
 * energies -- each component and the sum -- add up to the total.
 */
TEST(PaperClaims, EnergyBreakdownSumsToTotal)
{
    const auto metrics = runHeadlineGrid();
    ASSERT_EQ(metrics.size(), 60u);
    const auto expectSums = [](double parts, double total,
                               const char *what) {
        EXPECT_LE(std::abs(parts - total),
                  1e-12 * std::abs(total))
            << what << ": layers " << parts << " vs total " << total;
    };
    for (const schedule::StrategyMetrics &m : metrics) {
        SCOPED_TRACE(m.point.label());
        for (const StrategyKind kind : schedule::allStrategies()) {
            SCOPED_TRACE(toString(kind));
            const schedule::EvalResult &r = m.at(kind);
            costmodel::EnergyBreakdown sum;
            double totals = 0;
            for (const auto &layer : r.layers) {
                sum += layer.energy;
                totals += layer.energy.total();
            }
            const costmodel::EnergyBreakdown &total = r.total.energy;
            EXPECT_GT(total.total(), 0.0);
            expectSums(totals, total.total(), "total");
            expectSums(sum.dram_j, total.dram_j, "dram");
            expectSums(sum.buffer_j, total.buffer_j, "buffer");
            expectSums(sum.rf_j, total.rf_j, "rf");
            expectSums(sum.pe_j, total.pe_j, "pe");
            expectSums(sum.link_j, total.link_j, "link");
        }
    }
}

/**
 * Every DPipe plan of the headline grid -- 2 archs x 5 models x 6
 * sequence lengths x 4 sub-layers -- is scored against one of four
 * memoized skeletons, one per layer topology.
 */
TEST(DPipeSkeletons, HeadlineGridSharesFourTopologies)
{
    const std::size_t before = dpipe::pipelineSkeletonCount();
    runHeadlineGrid();
    const std::size_t after = dpipe::pipelineSkeletonCount();

    const dpipe::PipelineOptions pipeline =
        bench::sweepOptions().evaluator.pipeline;
    std::set<const dpipe::PipelineSkeleton *> used;
    for (const auto &cfg : model::allModels()) {
        for (const model::LayerKind kind : model::allLayerKinds()) {
            used.insert(&dpipe::pipelineSkeleton(
                model::buildCascade(kind, cfg).buildDag(),
                pipeline.max_orders));
        }
    }
    EXPECT_EQ(used.size(), 4u);
    // The grid already built every skeleton it uses.
    EXPECT_EQ(dpipe::pipelineSkeletonCount(), after);
    // ctest runs each test in a fresh process: the memo starts
    // empty and the grid leaves exactly the four.
    if (before == 0)
        EXPECT_EQ(after, 4u);
    else
        EXPECT_LE(after - before, 4u);
}

} // namespace
} // namespace transfusion
