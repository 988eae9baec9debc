/**
 * @file
 * Implementation of the calibrated serve cost tables.
 */

#include "cost_model.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.hh"

namespace transfusion::serve
{

namespace
{

/**
 * Geometric integer grid from lo to hi (inclusive, deduplicated).
 * Endpoints are exact so interpolation covers the full range.
 */
std::vector<std::int64_t>
geometricGrid(std::int64_t lo, std::int64_t hi, int points)
{
    tf_assert(lo > 0 && hi >= lo, "grid needs 0 < lo <= hi");
    tf_assert(points >= 2, "grid needs at least 2 points");
    std::vector<std::int64_t> xs;
    const double llo = std::log(static_cast<double>(lo));
    const double lhi = std::log(static_cast<double>(hi));
    for (int i = 0; i < points; ++i) {
        const double frac = static_cast<double>(i)
            / static_cast<double>(points - 1);
        auto x = static_cast<std::int64_t>(
            std::llround(std::exp(llo + frac * (lhi - llo))));
        xs.push_back(std::clamp(x, lo, hi));
    }
    xs.erase(std::unique(xs.begin(), xs.end()), xs.end());
    return xs;
}

/**
 * Where x falls on a sorted grid: ys[lo] exactly when lo == hi
 * (a one-point grid, or x clamped to an endpoint), else the segment
 * [lo, hi] = [lo, lo + 1] at fraction `frac`.
 */
struct Bracket
{
    std::size_t lo = 0;
    std::size_t hi = 0;
    double frac = 0;
};

/**
 * x outside [xs.front, xs.back] clamps to the endpoint.  Linear
 * extrapolation on the boundary segment used to run through zero
 * for a steep-enough negative boundary slope, pricing out-of-grid
 * batches at 0 s/step — the endpoint is the honest bound the grid
 * supports.
 */
Bracket
bracket(const std::vector<std::int64_t> &xs, double x)
{
    if (xs.size() == 1 || x <= static_cast<double>(xs.front()))
        return {};
    if (x >= static_cast<double>(xs.back()))
        return { xs.size() - 1, xs.size() - 1, 0 };
    std::size_t hi = 1;
    while (hi + 1 < xs.size() && x > static_cast<double>(xs[hi]))
        ++hi;
    const auto x0 = static_cast<double>(xs[hi - 1]);
    const auto x1 = static_cast<double>(xs[hi]);
    return { hi - 1, hi, (x - x0) / (x1 - x0) };
}

/** The value of a bracketed point on the table row `ys`. */
double
at(const Bracket &k, const std::vector<double> &ys)
{
    if (k.lo == k.hi)
        return ys[k.lo];
    return ys[k.lo] + k.frac * (ys[k.hi] - ys[k.lo]);
}

/** Piecewise-linear interpolation, clamped at the endpoints. */
double
interp(const std::vector<std::int64_t> &xs,
       const std::vector<double> &ys, double x)
{
    return at(bracket(xs, x), ys);
}

} // namespace

ServeCostModel::ServeCostModel(arch::ArchConfig arch,
                               model::TransformerConfig cfg,
                               schedule::StrategyKind strategy,
                               std::int64_t max_batch,
                               std::int64_t max_context,
                               std::int64_t max_prompt,
                               ServeCostOptions options)
    : ServeCostModel(
          strategy, max_batch, max_context, max_prompt, options,
          // Decode sampling visits one batch size at a time, so a
          // one-entry evaluator cache keeps this as cheap as the
          // old loop that hoisted the DecodeEvaluator per batch.
          [&arch, &cfg, strategy, &options,
           cache = std::shared_ptr<schedule::DecodeEvaluator>(),
           cached_batch = std::int64_t{ -1 }](
              std::int64_t batch,
              std::int64_t cache_len) mutable {
              if (batch != cached_batch) {
                  model::TransformerConfig bcfg = cfg;
                  bcfg.batch = batch;
                  cache = std::make_shared<
                      schedule::DecodeEvaluator>(
                      arch, bcfg,
                      schedule::DecodeWorkload{
                          /*prompt_len=*/1,
                          /*generate_tokens=*/0 },
                      options.evaluator);
                  cached_batch = batch;
              }
              const schedule::LayerMetrics m =
                  cache->stepMetrics(cache_len, strategy);
              return StepCost{ m.latency_s, m.energy.total() };
          },
          [&arch, &cfg, strategy, &options](
              std::int64_t prompt_len) {
              model::TransformerConfig one = cfg;
              one.batch = 1;
              const schedule::Evaluator eval(
                  arch, one,
                  schedule::Workload::causalSelfAttention(
                      prompt_len),
                  options.evaluator);
              const schedule::LayerMetrics total =
                  eval.evaluate(strategy).total;
              return StepCost{ total.latency_s,
                               total.energy.total() };
          })
{
    cfg.validate();
}

ServeCostModel::ServeCostModel(schedule::StrategyKind strategy,
                               std::int64_t max_batch,
                               std::int64_t max_context,
                               std::int64_t max_prompt,
                               const ServeCostOptions &options,
                               const DecodeStepFn &decode_step,
                               const PrefillFn &prefill)
    : strategy_(strategy)
{
    if (max_batch <= 0)
        tf_fatal("max_batch must be positive, got ", max_batch);
    if (max_context <= 0)
        tf_fatal("max_context must be positive, got ", max_context);
    if (max_prompt <= 0)
        tf_fatal("max_prompt must be positive, got ", max_prompt);

    batches_ = options.batches;
    if (batches_.empty()) {
        for (std::int64_t b = 1; b < max_batch; b *= 2)
            batches_.push_back(b);
        batches_.push_back(max_batch);
    }
    std::sort(batches_.begin(), batches_.end());
    batches_.erase(std::unique(batches_.begin(), batches_.end()),
                   batches_.end());
    if (batches_.front() <= 0)
        tf_fatal("batch sizes must be positive");

    const std::int64_t cache_lo = std::min<std::int64_t>(
        64, max_context);
    cache_lens_ = geometricGrid(cache_lo, max_context,
                                options.cache_samples);

    // Decode tables: batch-major over the cache-length grid.  One
    // sample fills both the seconds and joules rows.
    for (std::int64_t b : batches_) {
        std::vector<double> row_s;
        std::vector<double> row_j;
        row_s.reserve(cache_lens_.size());
        row_j.reserve(cache_lens_.size());
        for (std::int64_t len : cache_lens_) {
            const StepCost c = decode_step(b, len);
            row_s.push_back(c.seconds);
            row_j.push_back(c.joules);
        }
        step_s_.push_back(std::move(row_s));
        step_j_.push_back(std::move(row_j));
    }

    // Prefill table: single requests at geometric prompt lengths.
    const std::int64_t prompt_lo = std::min<std::int64_t>(
        64, max_prompt);
    prompt_lens_ = geometricGrid(prompt_lo, max_prompt,
                                 options.prefill_samples);
    for (std::int64_t p : prompt_lens_) {
        const StepCost c = prefill(p);
        prefill_s_.push_back(c.seconds);
        prefill_j_.push_back(c.joules);
    }
}

StepCost
ServeCostModel::decodeStep(std::int64_t batch,
                           double mean_cache_len) const
{
    if (batch <= 0)
        tf_fatal("decode batch must be positive, got ", batch);
    // Bilinear interpolation, bracket-only: the batch-axis interp
    // reads at most the two rows bracketing the batch, so only
    // those two cache-axis interps are evaluated.  Both brackets
    // are searched once and shared by the seconds and joules
    // tables.  The arithmetic is the full-scan form's verbatim
    // (interpolate every row along the cache axis, then along the
    // batch axis: same operands, same order; bracket() clamps as
    // std::clamp would), so the results are bit-identical to it —
    // tests/serve/cost_model_test.cc holds decodeStep to that
    // reference.
    const Bracket rows =
        bracket(batches_, static_cast<double>(batch));
    const Bracket cols = bracket(cache_lens_, mean_cache_len);
    const auto lookup = [&](const std::vector<std::vector<double>>
                                &table) {
        if (rows.lo == rows.hi)
            return at(cols, table[rows.lo]);
        const double y0 = at(cols, table[rows.lo]);
        const double y1 = at(cols, table[rows.hi]);
        return y0 + rows.frac * (y1 - y0);
    };
    return StepCost{ lookup(step_s_), lookup(step_j_) };
}

double
ServeCostModel::decodeStepSeconds(std::int64_t batch,
                                  double mean_cache_len) const
{
    return decodeStep(batch, mean_cache_len).seconds;
}

double
ServeCostModel::decodeStepJoules(std::int64_t batch,
                                 double mean_cache_len) const
{
    return decodeStep(batch, mean_cache_len).joules;
}

double
ServeCostModel::prefillSeconds(std::int64_t prompt_len) const
{
    if (prompt_len <= 0)
        tf_fatal("prompt length must be positive, got ", prompt_len);
    return interp(prompt_lens_, prefill_s_,
                  static_cast<double>(prompt_len));
}

double
ServeCostModel::prefillJoules(std::int64_t prompt_len) const
{
    if (prompt_len <= 0)
        tf_fatal("prompt length must be positive, got ", prompt_len);
    return interp(prompt_lens_, prefill_j_,
                  static_cast<double>(prompt_len));
}

costmodel::KeyBuilder &
appendCacheKey(costmodel::KeyBuilder &k,
               const arch::ArchConfig &arch)
{
    return k.add("arch.name", arch.name)
        .add("arch.pe2d.rows", arch.pe2d.rows)
        .add("arch.pe2d.cols", arch.pe2d.cols)
        .add("arch.pe1d", arch.pe1d)
        .add("arch.buffer_bytes", arch.buffer_bytes)
        .add("arch.dram_bps", arch.dram_bytes_per_sec)
        .add("arch.clock_hz", arch.clock_hz)
        .add("arch.element_bytes", arch.element_bytes)
        .add("arch.energy.mac_pj", arch.energy.mac_pj)
        .add("arch.energy.reg_pj", arch.energy.reg_pj)
        .add("arch.energy.buffer_pj", arch.energy.buffer_pj)
        .add("arch.energy.dram_pj_per_byte",
             arch.energy.dram_pj_per_byte);
}

costmodel::KeyBuilder &
appendCacheKey(costmodel::KeyBuilder &k,
               const model::TransformerConfig &cfg)
{
    return k.add("model.name", cfg.name)
        .add("model.layers", cfg.layers)
        .add("model.d_model", cfg.d_model)
        .add("model.heads", cfg.heads)
        .add("model.head_dim", cfg.head_dim)
        .add("model.ffn_hidden", cfg.ffn_hidden)
        .add("model.activation",
             static_cast<std::int64_t>(cfg.activation))
        .add("model.batch", cfg.batch)
        .add("model.d_input", cfg.d_input);
}

costmodel::KeyBuilder &
appendCacheKey(costmodel::KeyBuilder &k,
               const schedule::EvaluatorOptions &options)
{
    return k
        .add("eval.pipeline.max_orders",
             static_cast<std::uint64_t>(
                 options.pipeline.max_orders))
        .add("eval.pipeline.vector_on_2d_max_lanes",
             options.pipeline.latency.vector_on_2d_max_lanes)
        .add("eval.pipeline.matrix_on_1d_efficiency",
             options.pipeline.latency.matrix_on_1d_efficiency)
        .add("eval.pipeline.native_efficiency",
             options.pipeline.latency.native_efficiency)
        .add("eval.pipeline.static_exp_on_2d",
             options.pipeline.static_exp_on_2d)
        .add("eval.mcts.iterations", options.mcts.iterations)
        .add("eval.mcts.ucb_c", options.mcts.ucb_c)
        .add("eval.mcts.seed", options.mcts.seed)
        .add("eval.mcts.threads", options.mcts.threads)
        .add("eval.softmax_extra_words",
             options.softmax_extra_words)
        .add("eval.rf_forward_fused", options.rf_forward_fused)
        .add("eval.unfused_reread_factor",
             options.unfused_reread_factor)
        .add("eval.use_tileseek", options.use_tileseek)
        .add("eval.overlap_dram", options.overlap_dram);
}

costmodel::KeyBuilder &
appendCacheKey(costmodel::KeyBuilder &k,
               const ServeCostOptions &options)
{
    k.add("cost.batches.n", options.batches.size());
    for (std::size_t i = 0; i < options.batches.size(); ++i)
        k.add("cost.batches", options.batches[i]);
    k.add("cost.cache_samples", options.cache_samples)
        .add("cost.prefill_samples", options.prefill_samples);
    return appendCacheKey(k, options.evaluator);
}

} // namespace transfusion::serve
