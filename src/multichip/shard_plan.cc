/**
 * @file
 * Parallel (tp, pp) shard-plan search.
 */

#include "shard_plan.hh"

#include "common/logging.hh"
#include "costmodel/cost_table_cache.hh"
#include "obs/fan_out.hh"
#include "obs/obs.hh"
#include "serve/cost_model.hh"

namespace transfusion::multichip
{

std::vector<ShardSpec>
feasibleSpecs(const model::TransformerConfig &cfg,
              std::int64_t total_layers, int chips)
{
    if (chips < 1)
        tf_fatal("cluster size must be >= 1, got ", chips);
    std::vector<ShardSpec> specs;
    for (int tp = 1; tp <= chips; ++tp) {
        if (chips % tp != 0)
            continue;
        const int pp = chips / tp;
        if (cfg.heads % tp != 0 || cfg.ffn_hidden % tp != 0)
            continue;
        if (static_cast<std::int64_t>(pp) > total_layers)
            continue;
        specs.push_back({ tp, pp });
    }
    return specs;
}

namespace
{

ShardPlan
planShardsUncached(const ClusterConfig &cluster,
                   const model::StackConfig &stack,
                   std::int64_t src_len, std::int64_t tgt_len,
                   schedule::StrategyKind strategy,
                   const ShardPlanOptions &options)
{
    const std::int64_t total_layers =
        stack.encoder_layers + stack.decoder_layers;
    const std::vector<ShardSpec> specs = feasibleSpecs(
        stack.block, total_layers, cluster.size());
    if (specs.empty())
        tf_fatal("no feasible (tp, pp) sharding of '",
                 stack.block.name, "' over ", cluster.size(),
                 " chips");

    ShardPlan plan;
    plan.entries = obs::fanOut(
        options.threads, specs, [&](const ShardSpec &spec) {
            ShardPlanEntry entry;
            entry.spec = spec;
            const ShardedStackEvaluator eval(cluster, stack, src_len,
                                             tgt_len, spec,
                                             options.evaluator);
            entry.result = eval.evaluate(strategy);
            return entry;
        });

    for (std::size_t i = 1; i < plan.entries.size(); ++i) {
        if (plan.entries[i].objective(options.rank_by_steady_state)
            < plan.entries[plan.best].objective(
                options.rank_by_steady_state))
            plan.best = i;
    }
    TF_COUNT("multichip.shard_plans", 1);
    return plan;
}

} // namespace

costmodel::KeyBuilder &
appendCacheKey(costmodel::KeyBuilder &k,
               const model::StackConfig &stack)
{
    k.add("stack.name", stack.name);
    serve::appendCacheKey(k, stack.block);
    return k.add("stack.encoder_layers", stack.encoder_layers)
        .add("stack.decoder_layers", stack.decoder_layers)
        .add("stack.decoder_cross_attention",
             stack.decoder_cross_attention);
}

ShardPlan
planShards(const ClusterConfig &cluster,
           const model::StackConfig &stack, std::int64_t src_len,
           std::int64_t tgt_len, schedule::StrategyKind strategy,
           const ShardPlanOptions &options)
{
    TF_SPAN("multichip.plan_shards");
    cluster.validate();
    stack.validate();
    // Memoized per full input fingerprint.  `options.threads` is
    // deliberately NOT in the key: the sweep's result and its
    // registry deltas are thread-invariant (input-order collection,
    // grid-order merge — the determinism contract the threads-1v4
    // replay tests pin), so every fan-out width shares one entry.
    costmodel::KeyBuilder k;
    k.add("kind", "shard-plan");
    appendCacheKey(k, cluster);
    appendCacheKey(k, stack);
    k.add("src_len", src_len)
        .add("tgt_len", tgt_len)
        .add("strategy", schedule::toString(strategy))
        .add("rank_by_steady_state", options.rank_by_steady_state);
    serve::appendCacheKey(k, options.evaluator);
    const auto plan =
        costmodel::CostTableCache::instance()
            .getOrBuild<ShardPlan>(k.str(), [&] {
                return planShardsUncached(cluster, stack, src_len,
                                          tgt_len, strategy,
                                          options);
            });
    return *plan;
}

} // namespace transfusion::multichip
