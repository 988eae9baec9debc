/**
 * @file
 * Tests for DPipe plan skeletons: the memoized topology-only half
 * of schedulePipeline must change nothing a caller can observe.
 * The plan of the call that builds a skeleton (cold) and of a call
 * that reuses it (warm) are bit-equal, the memo holds what a fresh
 * build produces, and racing threads build one skeleton and agree
 * with a serial run.
 */

#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <thread>

#include "arch/arch.hh"
#include "dpipe/skeleton.hh"
#include "model/cascades.hh"
#include "obs/obs.hh"
#include "schedule/evaluator.hh"
#include "schedule_bits.hh"

namespace transfusion::dpipe
{
namespace
{

using model::LayerKind;

einsum::DimEnv
dimsAt(const arch::ArchConfig &arch, const model::TransformerConfig &cfg,
       std::int64_t seq)
{
    return schedule::Evaluator(arch, cfg, seq).dims();
}

/**
 * The memo has no clear(), so each case gets a cold skeleton of its
 * own: the order cap is part of the memo key, and every case uses a
 * cap no other caller does.
 */
TEST(PipelineSkeleton, ColdAndWarmPlansAreBitEqual)
{
    const model::TransformerConfig cfg = model::bertBase();
    std::size_t cap = PipelineOptions{}.max_orders;
    for (const auto &arch : { arch::cloudArch(), arch::edgeArch() }) {
        for (const std::int64_t seq :
             { std::int64_t{1} << 10, std::int64_t{1} << 16,
               std::int64_t{1} << 20 }) {
            const einsum::DimEnv dims = dimsAt(arch, cfg, seq);
            for (const LayerKind kind : model::allLayerKinds()) {
                SCOPED_TRACE(arch.name + " S=" + std::to_string(seq)
                             + " " + model::toString(kind));
                PipelineOptions opts;
                opts.max_orders = ++cap;
                const auto cascade = model::buildCascade(kind, cfg);
                const auto mapping = model::peMapping(kind);
                const std::size_t before = pipelineSkeletonCount();
                const PipelineResult cold = schedulePipeline(
                    cascade, dims, arch, mapping, opts);
                EXPECT_EQ(pipelineSkeletonCount(), before + 1);
                const PipelineResult warm = schedulePipeline(
                    cascade, dims, arch, mapping, opts);
                EXPECT_EQ(pipelineSkeletonCount(), before + 1);
                expectSamePlan(cold, warm);
            }
        }
    }
}

TEST(PipelineSkeleton, MemoHoldsWhatAFreshBuildProduces)
{
    const PipelineOptions opts;
    for (const LayerKind kind : model::allLayerKinds()) {
        SCOPED_TRACE(model::toString(kind));
        const auto dag =
            model::buildCascade(kind, model::bertBase()).buildDag();
        const PipelineSkeleton fresh =
            buildPipelineSkeleton(dag, opts.max_orders);
        const PipelineSkeleton &memo =
            pipelineSkeleton(dag, opts.max_orders);
        EXPECT_EQ(&memo, &pipelineSkeleton(dag, opts.max_orders));

        const auto sameOrders = [](const OrderSet &a,
                                   const OrderSet &b) {
            ASSERT_EQ(a.size(), b.size());
            ASSERT_EQ(a.nodes(), b.nodes());
            for (std::size_t i = 0; i < a.size(); ++i)
                EXPECT_EQ(a.orderVector(i), b.orderVector(i));
        };
        sameOrders(memo.epoch, fresh.epoch);
        // The epoch orders are the Kahn order, then the capped
        // lexicographic enumeration.
        ASSERT_GE(memo.epoch.size(), 1u);
        EXPECT_EQ(memo.epoch.orderVector(0), dag.topoSort());
        const auto lex = dag.enumerateTopoOrders(opts.max_orders);
        ASSERT_EQ(memo.epoch.size(), 1 + lex.size());
        for (std::size_t i = 0; i < lex.size(); ++i)
            EXPECT_EQ(memo.epoch.orderVector(i + 1), lex[i]);

        const auto parts = enumerateBipartitions(dag);
        ASSERT_EQ(memo.bipartitions.size(), parts.size());
        ASSERT_EQ(fresh.bipartitions.size(), parts.size());
        for (std::size_t i = 0; i < parts.size(); ++i) {
            const BipartitionSkeleton &m = memo.bipartitions[i];
            const BipartitionSkeleton &f = fresh.bipartitions[i];
            EXPECT_EQ(m.partition.in_first, parts[i].in_first);
            EXPECT_EQ(m.a_ids, f.a_ids);
            EXPECT_EQ(m.b_ids, f.b_ids);
            EXPECT_EQ(static_cast<int>(m.a_ids.size()),
                      parts[i].firstSize());
            EXPECT_EQ(m.steady.nodes(), dag.nodeCount() + 1);
            sameOrders(m.steady, f.steady);
            sameOrders(m.fill, f.fill);
            sameOrders(m.drain, f.drain);
        }
    }
}

TEST(PipelineSkeleton, DifferentOrderCapsAreDifferentEntries)
{
    const auto dag =
        model::buildCascade(LayerKind::Mha, model::bertBase())
            .buildDag();
    const PipelineSkeleton &few = pipelineSkeleton(dag, 3);
    const PipelineSkeleton &many = pipelineSkeleton(dag, 64);
    EXPECT_NE(&few, &many);
    EXPECT_EQ(few.epoch.size(), 4u);
    EXPECT_GT(many.epoch.size(), few.epoch.size());
}

/**
 * A fused LayerNorm+FFN cascade: a topology no library layer has,
 * so its skeleton is cold when the threads start.
 */
einsum::Cascade
layerNormFfnCascade(const model::TransformerConfig &cfg)
{
    einsum::Cascade c("LayerNorm+FFN");
    for (const LayerKind kind :
         { LayerKind::LayerNorm, LayerKind::Ffn }) {
        const einsum::Cascade part = model::buildCascade(kind, cfg);
        for (const auto &op : part.ops())
            c.add(op);
    }
    return c;
}

TEST(PipelineSkeleton, RacingThreadsBuildOneSkeletonAndMatchSerial)
{
    const model::TransformerConfig cfg = model::bertBase();
    const arch::ArchConfig arch = arch::cloudArch();
    const einsum::DimEnv dims = dimsAt(arch, cfg, 4096);
    const einsum::Cascade cascade = layerNormFfnCascade(cfg);
    const model::DimMapping mapping = model::peMapping(LayerKind::Ffn);

    constexpr int kThreads = 4;
    const std::size_t before = pipelineSkeletonCount();
    std::array<PipelineResult, kThreads> raced;
    std::array<obs::RegistrySnapshot, kThreads> raced_counts;
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            obs::Registry reg;
            obs::ScopedRegistry scope(reg);
            start.arrive_and_wait();
            raced[static_cast<std::size_t>(t)] =
                schedulePipeline(cascade, dims, arch, mapping);
            raced_counts[static_cast<std::size_t>(t)] = reg.snapshot();
        });
    }
    for (auto &th : threads)
        th.join();
    EXPECT_EQ(pipelineSkeletonCount(), before + 1);

    obs::Registry reg;
    PipelineResult serial;
    {
        obs::ScopedRegistry scope(reg);
        serial = schedulePipeline(cascade, dims, arch, mapping);
    }
    EXPECT_TRUE(serial.pipelined);
    for (int t = 0; t < kThreads; ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        expectSamePlan(raced[static_cast<std::size_t>(t)], serial);
        EXPECT_EQ(raced_counts[static_cast<std::size_t>(t)].counters,
                  reg.snapshot().counters);
    }
}

/** The library-cascade memo, raced from a cold key: every thread
 *  gets the one entry, and plans on it match the string path. */
TEST(LibraryCascade, RacingThreadsShareOneEntry)
{
    // A LayerNorm width no other test uses keys a fresh entry.
    model::TransformerConfig cfg = model::bertBase();
    cfg.heads = 7;
    cfg.head_dim = 9;
    cfg.d_model = 63;
    const arch::ArchConfig arch = arch::edgeArch();
    const einsum::DimEnv dims = model::makeDims(cfg, 256, 16, 16);
    const auto kind = LayerKind::LayerNorm;

    constexpr int kThreads = 4;
    std::array<const einsum::CompiledCascade *, kThreads> got{};
    std::array<PipelineResult, kThreads> plans;
    std::latch start(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            start.arrive_and_wait();
            const auto &c = model::libraryCascade(kind, cfg);
            got[static_cast<std::size_t>(t)] = &c;
            plans[static_cast<std::size_t>(t)] = schedulePipeline(
                c, c.bind(dims),
                pipelineEpochs(model::peMapping(kind), dims, arch),
                arch);
        });
    }
    for (auto &th : threads)
        th.join();
    const PipelineResult serial =
        schedulePipeline(model::buildCascade(kind, cfg), dims, arch,
                         model::peMapping(kind));
    for (int t = 0; t < kThreads; ++t) {
        SCOPED_TRACE("thread " + std::to_string(t));
        EXPECT_EQ(got[static_cast<std::size_t>(t)], got[0]);
        expectSamePlan(plans[static_cast<std::size_t>(t)], serial);
    }
}

} // namespace
} // namespace transfusion::dpipe
