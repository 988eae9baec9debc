/**
 * @file
 * Unit tests for the calibrated serve cost tables.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "serve/cost_model.hh"

namespace transfusion::serve
{
namespace
{

ServeCostOptions
fastCost()
{
    ServeCostOptions o;
    o.cache_samples = 3;
    o.prefill_samples = 3;
    o.evaluator.mcts.iterations = 64;
    return o;
}

TEST(ServeCostModel, MatchesDecodeEvaluatorAtCalibratedPoints)
{
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();
    const auto kind = schedule::StrategyKind::FuseMax;
    const auto opts = fastCost();
    const ServeCostModel cm(arch, cfg, kind, /*max_batch=*/4,
                            /*max_context=*/2048,
                            /*max_prompt=*/1024, opts);

    // The (batch=2, cache=64) grid node must reproduce the public
    // per-step API it was calibrated from.
    model::TransformerConfig two = cfg;
    two.batch = 2;
    const schedule::DecodeEvaluator deval(arch, two, { 1, 0 },
                                          opts.evaluator);
    const double direct = deval.stepMetrics(64, kind).latency_s;
    EXPECT_NEAR(cm.decodeStepSeconds(2, 64.0), direct,
                1e-12 * direct);
}

TEST(ServeCostModel, MonotoneInCacheBatchAndPrompt)
{
    const ServeCostModel cm(
        arch::edgeArch(), model::t5Small(),
        schedule::StrategyKind::FuseMax, /*max_batch=*/8,
        /*max_context=*/4096, /*max_prompt=*/2048, fastCost());

    // Longer caches stream more KV words per step.
    EXPECT_LT(cm.decodeStepSeconds(4, 256),
              cm.decodeStepSeconds(4, 4096));
    // More lanes move more data per step (weights amortize, KV
    // does not).
    EXPECT_LT(cm.decodeStepSeconds(1, 1024),
              cm.decodeStepSeconds(8, 1024));
    // Longer prompts cost more prefill.
    EXPECT_LT(cm.prefillSeconds(128), cm.prefillSeconds(2048));
    // Batch clamps instead of extrapolating.
    EXPECT_DOUBLE_EQ(cm.decodeStepSeconds(64, 1024),
                     cm.decodeStepSeconds(8, 1024));
    EXPECT_GT(cm.decodeStepSeconds(1, 16.0), 0.0);
    EXPECT_GT(cm.prefillSeconds(1), 0.0);
}

TEST(ServeCostModel, OutOfGridQueriesClampToEndpointValues)
{
    // Injected pricing with a steep boundary slope: linear
    // extrapolation below the first cache grid point (64) crosses
    // zero, which once priced short caches at a zero-floored
    // 0 s/step.  The endpoint value is the honest bound.
    ServeCostOptions o;
    o.cache_samples = 3;
    o.prefill_samples = 3;
    const ServeCostModel cm(
        schedule::StrategyKind::FuseMax, /*max_batch=*/1,
        /*max_context=*/4096, /*max_prompt=*/4096, o,
        [](std::int64_t, std::int64_t len) {
            const double v =
                1e-6 * (static_cast<double>(len) - 60.0);
            return StepCost{ v, 2.0 * v };
        },
        [](std::int64_t prompt) {
            const double v =
                1e-6 * (static_cast<double>(prompt) - 60.0);
            return StepCost{ v, 2.0 * v };
        });
    // Below the grid: the len=64 endpoint, never an extrapolated
    // negative or zero price.
    EXPECT_DOUBLE_EQ(cm.decodeStepSeconds(1, 1.0), 4e-6);
    EXPECT_DOUBLE_EQ(cm.prefillSeconds(1), 4e-6);
    EXPECT_GT(cm.decodeStepSeconds(1, 1.0), 0.0);
    // Above the grid: the max_context endpoint.
    EXPECT_DOUBLE_EQ(cm.decodeStepSeconds(1, 1e9),
                     cm.decodeStepSeconds(1, 4096));
    // The joules table rides the same grid and clamping; the
    // injected pricing made energy exactly twice the seconds.
    EXPECT_DOUBLE_EQ(cm.decodeStepJoules(1, 1.0), 8e-6);
    EXPECT_DOUBLE_EQ(cm.prefillJoules(1), 8e-6);
    EXPECT_DOUBLE_EQ(cm.decodeStepJoules(1, 777.0),
                     2.0 * cm.decodeStepSeconds(1, 777.0));
    EXPECT_DOUBLE_EQ(cm.prefillJoules(512),
                     2.0 * cm.prefillSeconds(512));
}

/** The decode grid and tables, recorded from the calibration
 *  samples (taken batch-major, then by cache length). */
struct RecordedGrid
{
    std::vector<std::int64_t> batches;
    std::vector<std::int64_t> cache_lens;
    std::vector<std::vector<double>> step_s;
    std::vector<std::vector<double>> step_j;
};

/** The two-lookup decode pricing decodeStep replaced: the grid
 *  interpolation, then one full bracket search per table. */
double
interpReference(const std::vector<std::int64_t> &xs,
                const std::vector<double> &ys, double x)
{
    if (xs.size() == 1)
        return ys[0];
    if (x <= static_cast<double>(xs.front()))
        return ys.front();
    if (x >= static_cast<double>(xs.back()))
        return ys.back();
    std::size_t hi = 1;
    while (hi + 1 < xs.size() && x > static_cast<double>(xs[hi]))
        ++hi;
    const auto x0 = static_cast<double>(xs[hi - 1]);
    const auto x1 = static_cast<double>(xs[hi]);
    const double frac = (x - x0) / (x1 - x0);
    return ys[hi - 1] + frac * (ys[hi] - ys[hi - 1]);
}

double
decodeLookupReference(const RecordedGrid &g,
                      const std::vector<std::vector<double>> &table,
                      std::int64_t batch, double mean_cache_len)
{
    const double b = std::clamp(
        static_cast<double>(batch),
        static_cast<double>(g.batches.front()),
        static_cast<double>(g.batches.back()));
    const auto at = [&](std::size_t i) {
        return interpReference(g.cache_lens, table[i],
                               mean_cache_len);
    };
    if (g.batches.size() == 1)
        return at(0);
    if (b <= static_cast<double>(g.batches.front()))
        return at(0);
    if (b >= static_cast<double>(g.batches.back()))
        return at(g.batches.size() - 1);
    std::size_t hi = 1;
    while (hi + 1 < g.batches.size()
           && b > static_cast<double>(g.batches[hi]))
        ++hi;
    const auto x0 = static_cast<double>(g.batches[hi - 1]);
    const auto x1 = static_cast<double>(g.batches[hi]);
    const double frac = (b - x0) / (x1 - x0);
    const double y0 = at(hi - 1);
    const double y1 = at(hi);
    return y0 + frac * (y1 - y0);
}

/** The full-scan decode pricing the bracket-only lookup replaced:
 *  interpolate every batch row along the cache axis, then
 *  interpolate along the batch axis. */
double
decodeAllRowsReference(const RecordedGrid &g,
                        const std::vector<std::vector<double>> &table,
                        std::int64_t batch, double mean_cache_len)
{
    const double b = std::clamp(
        static_cast<double>(batch),
        static_cast<double>(g.batches.front()),
        static_cast<double>(g.batches.back()));
    std::vector<double> at_len;
    for (const auto &row : table)
        at_len.push_back(
            interpReference(g.cache_lens, row, mean_cache_len));
    return interpReference(g.batches, at_len, b);
}

std::uint64_t
bitsOf(double x)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &x, sizeof u);
    return u;
}

/**
 * Calibrate from smooth injected pricing (seconds rising, joules
 * with a negative cache slope, both with rounding-heavy
 * coefficients), record the grid, and hold decodeStep and its two
 * wrappers bitwise to the reference — and decodeStep's seconds to
 * the full-scan reference — at every (batch, cache) query: `lens`
 * plus every recorded cache node and segment midpoint.
 */
void
expectDecodeStepMatchesReference(std::vector<std::int64_t> batches,
                                 std::int64_t max_context,
                                 const std::vector<std::int64_t> &bs,
                                 const std::vector<double> &lens)
{
    ServeCostOptions o;
    o.batches = std::move(batches);
    o.cache_samples = 5;
    o.prefill_samples = 2;
    RecordedGrid g;
    const ServeCostModel cm(
        schedule::StrategyKind::FuseMax, /*max_batch=*/32,
        max_context, /*max_prompt=*/256, o,
        [&g](std::int64_t b, std::int64_t len) {
            if (g.batches.empty() || g.batches.back() != b) {
                g.batches.push_back(b);
                g.step_s.emplace_back();
                g.step_j.emplace_back();
            }
            if (g.batches.size() == 1)
                g.cache_lens.push_back(len);
            const auto db = static_cast<double>(b);
            const auto dl = static_cast<double>(len);
            const StepCost c{ 1.3e-3 + 7.1e-5 * db * std::sqrt(dl)
                                  + 3.3e-9 * dl * dl / 7.0,
                              0.91 / 3.0 + 0.17 * db
                                  - 1.1e-4 * dl / db };
            g.step_s.back().push_back(c.seconds);
            g.step_j.back().push_back(c.joules);
            return c;
        },
        [](std::int64_t p) {
            const double v = 1e-6 * static_cast<double>(p);
            return StepCost{ v, v };
        });
    ASSERT_EQ(g.batches, cm.calibratedBatches());
    std::vector<double> queries = lens;
    for (std::size_t i = 0; i < g.cache_lens.size(); ++i) {
        queries.push_back(static_cast<double>(g.cache_lens[i]));
        if (i + 1 < g.cache_lens.size())
            queries.push_back(0.5
                              * static_cast<double>(
                                  g.cache_lens[i]
                                  + g.cache_lens[i + 1]));
    }
    for (const std::int64_t b : bs)
        for (const double len : queries) {
            SCOPED_TRACE("batch " + std::to_string(b) + ", cache "
                         + std::to_string(len));
            const StepCost c = cm.decodeStep(b, len);
            const double s =
                decodeLookupReference(g, g.step_s, b, len);
            const double j =
                decodeLookupReference(g, g.step_j, b, len);
            EXPECT_EQ(bitsOf(c.seconds), bitsOf(s));
            EXPECT_EQ(bitsOf(c.joules), bitsOf(j));
            EXPECT_EQ(bitsOf(cm.decodeStepSeconds(b, len)), bitsOf(s));
            EXPECT_EQ(bitsOf(cm.decodeStepJoules(b, len)), bitsOf(j));
            EXPECT_EQ(bitsOf(c.seconds),
                      bitsOf(decodeAllRowsReference(g, g.step_s, b,
                                                     len)));
        }
}

TEST(ServeCostModel, DecodeStepMatchesSecondsAndJoulesBitwise)
{
    // Batch grid {2, 5, 12}: 1 is below it, 13 and 40 above, the
    // rest on or between.  The cache grid runs 64..3000 over 5
    // samples; the queries add fractional points between the nodes
    // and both sides beyond.
    const std::vector<std::int64_t> bs = { 1, 2, 3, 4, 5, 6, 7, 11,
                                           12, 13, 40 };
    const std::vector<double> lens = { 0.5, 1.0, 63.25, 64.5,
                                       100.37, 777.7, 1234.5,
                                       2999.9, 3000.5, 1e9 };
    expectDecodeStepMatchesReference({ 2, 5, 12 }, 3000, bs, lens);
    // One-row table: every batch clamps onto the single row.
    expectDecodeStepMatchesReference({ 1 }, 3000, { 1, 2, 4 },
                                     lens);
    // One-column table: max_context < 64 collapses the cache grid
    // to the single point {40}.
    expectDecodeStepMatchesReference({ 2, 5, 12 }, 40, bs,
                                     { 0.5, 39.0, 40.0, 40.5, 1e4 });
}

TEST(ServeCostModel, EnergyTablesMatchTheEvaluatorAtGridPoints)
{
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();
    const auto kind = schedule::StrategyKind::FuseMax;
    const auto opts = fastCost();
    const ServeCostModel cm(arch, cfg, kind, /*max_batch=*/4,
                            /*max_context=*/2048,
                            /*max_prompt=*/1024, opts);

    // (batch=2, cache=64) is a calibrated grid node: the joules
    // lookup must reproduce the evaluator's energy exactly, and
    // positive energy must survive interpolation everywhere.
    model::TransformerConfig two = cfg;
    two.batch = 2;
    const schedule::DecodeEvaluator deval(arch, two, { 1, 0 },
                                          opts.evaluator);
    const double direct =
        deval.stepMetrics(64, kind).energy.total();
    EXPECT_NEAR(cm.decodeStepJoules(2, 64.0), direct,
                1e-12 * direct);
    EXPECT_GT(cm.decodeStepJoules(1, 300.0), 0.0);
    EXPECT_GT(cm.prefillJoules(500), 0.0);
    // Longer caches stream more KV — more energy too.
    EXPECT_LT(cm.decodeStepJoules(4, 256),
              cm.decodeStepJoules(4, 2048));
}

TEST(ServeCostModel, StrategiesPriceDifferently)
{
    const auto arch = arch::edgeArch();
    const auto cfg = model::t5Small();
    const ServeCostModel unfused(
        arch, cfg, schedule::StrategyKind::Unfused, 4, 2048, 1024,
        fastCost());
    const ServeCostModel fused(
        arch, cfg, schedule::StrategyKind::FuseMax, 4, 2048, 1024,
        fastCost());
    // Fusion never loses, and wins clearly on prefill.
    EXPECT_GT(unfused.prefillSeconds(1024),
              fused.prefillSeconds(1024));
    EXPECT_GE(unfused.decodeStepSeconds(4, 1024) * 1.001,
              fused.decodeStepSeconds(4, 1024));
}

} // namespace
} // namespace transfusion::serve
