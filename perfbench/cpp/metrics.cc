#include "metrics.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench
{

namespace
{

MetricDef
def(const char *name, const char *unit, const char *better,
    const char *layer, const char *what)
{
    return { name, unit, better, layer, what };
}

/** Host self time of a layer in the traced run, in seconds. */
MetricDef
selfTime(const char *name, const char *layer, const char *what)
{
    MetricDef d = def(name, "s", "lower", layer, what);
    d.self_time = true;
    return d;
}

/** %.17g: every digit the double holds. */
std::string
fullDigits(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

const std::vector<MetricDef> &
endToEndMetrics()
{
    static const std::vector<MetricDef> defs = {
        def("setup_s", "s", "lower", "e2e",
            "host: median over several set-ups, each from an empty "
            "cost-table cache, of the work before the first timed "
            "operation (cascades, traces, fault schedules, "
            "calibration)"),
        def("host_op_s", "s", "lower", "e2e",
            "host: one timed operation, single-threaded: the sum "
            "over its parts of each part's fastest time (sweep "
            "points / fleet replays / fault-schedule replays), or "
            "for plan_search the fastest plan() call from an empty "
            "cache"),
        def("peak_rss_mb", "MiB", "lower", "e2e",
            "host: peak resident set of the process through its "
            "first set-ups and operation"),
        def("ops_passed_frac", "fraction", "higher", "e2e",
            "operations whose output checks all passed / operations "
            "checked (1 - failed_ops_frac)"),
        def("modeled_latency_s", "s", "lower", "e2e",
            "modeled: geomean TransFusion latency over the sweep "
            "grid / p99 request latency of the chosen deployment / "
            "mean request latency of the replays (fleet_chaos, "
            "fault_replan)"),
    };
    return defs;
}

const std::vector<MetricDef> &
perLayerMetrics()
{
    static const std::vector<MetricDef> defs = {
        selfTime("schedule.evaluate_s", "schedule",
            "host self time in Evaluator::evaluate"),
        selfTime("schedule.sweep_s", "schedule",
            "host self time in Sweep::run outside its evaluations"),
        def("schedule.evaluations", "count", "lower", "schedule",
            "Evaluator::evaluate calls (traced spans)"),
        def("schedule.point_s_p50", "s", "lower", "schedule",
            "host: median time of one sweep point"),
        def("schedule.point_s_max", "s", "lower", "schedule",
            "host: slowest sweep point"),
        def("schedule.sweep_busy_frac", "fraction", "higher",
            "schedule",
            "time in evaluations / sweep wall"),
        selfTime("model.build_cascade_s", "model",
            "host self time in model::buildCascade (direct calls)"),
        selfTime("einsum.dag_build_s", "einsum",
            "host self time in Cascade::buildDag (direct calls)"),
        selfTime("dpipe.enumerate_bipartitions_s", "dpipe",
            "host self time in enumerateBipartitions (direct "
            "calls at each sweep point)"),
        selfTime("dpipe.schedule_s", "dpipe",
            "host self time in schedulePipeline (direct calls at "
            "each sweep point)"),
        def("dpipe.bipartitions_tried", "logical_count", "lower",
            "dpipe", "bipartitions scheduled"),
        def("dpipe.orders_tried", "logical_count", "lower", "dpipe",
            "topological orders scheduled"),
        def("dpipe.orders_pruned", "logical_count", "higher", "dpipe",
            "topological orders cut by the bound"),
        def("dpipe.states_explored", "logical_count", "lower",
            "dpipe", "DP states explored"),
        def("dpipe.plans", "logical_count", "lower", "dpipe",
            "schedulePipeline plans produced"),
        def("dpipe.pipelined_ratio", "fraction", "higher", "dpipe",
            "plans that chose a bipartition pipeline / plans"),
        selfTime("tileseek.search_s", "tileseek",
            "host self time in TileSeek searches"),
        def("tileseek.iterations", "logical_count", "lower",
            "tileseek", "MCTS iterations"),
        def("tileseek.evaluations", "logical_count", "lower",
            "tileseek", "MCTS leaf evaluations"),
        def("tileseek.feasible_ratio", "fraction", "higher",
            "tileseek", "1 - infeasible leaves / evaluations"),
        def("tileseek.best_cost_updates", "logical_count", "lower",
            "tileseek", "incumbent improvements"),
        def("costmodel.cache_hits", "count", "higher", "costmodel",
            "CostTableCache::stats() hit delta"),
        def("costmodel.cache_misses", "count", "lower", "costmodel",
            "CostTableCache::stats() miss delta"),
        def("costmodel.cache_entries", "count", "lower", "costmodel",
            "CostTableCache entries after the operation"),
        def("costmodel.cache_hit_ratio", "fraction", "higher",
            "costmodel", "hits / (hits + misses)"),
        selfTime("multichip.plan_shards_s", "multichip",
            "host self time in planShards"),
        selfTime("multichip.sharded_calibration_s",
            "multichip",
            "host self time in sharded calibration and evaluation"),
        def("multichip.shard_plans", "logical_count", "lower",
            "multichip", "(tp, pp) candidates evaluated"),
        selfTime("serve.calibration_s", "serve",
            "host self time in simulator construction outside the "
            "layers it calls"),
        def("serve.rounds", "count", "lower", "serve",
            "simulated prefill + decode rounds"),
        def("serve.host_ns_per_round", "ns", "lower", "serve",
            "host replay time / simulated rounds"),
        def("serve.admissions", "count", "higher", "serve",
            "requests admitted and served"),
        def("serve.sheds", "count", "lower", "serve",
            "requests shed at admission"),
        selfTime("fleet.run_s", "fleet",
            "host self time in FleetSimulator::run"),
        def("fleet.routed", "count", "lower", "fleet",
            "routing decisions"),
        def("fleet.failover_reroutes", "count", "lower", "fleet",
            "drained requests re-offered"),
        def("fleet.breaker_opens", "count", "lower", "fleet",
            "circuit-breaker opens"),
        def("fleet.brownout_sheds", "count", "lower", "fleet",
            "requests shed by brownout"),
        selfTime("fault.run_s", "fault",
            "host self time in FaultTolerantServer::run"),
        def("fault.replay_s_p50", "s", "lower", "fault",
            "host: median time of one fault-schedule replay"),
        def("fault.replay_s_max", "s", "lower", "fault",
            "host: slowest fault-schedule replay"),
        def("fault.replans", "count", "lower", "fault",
            "successful re-shardings"),
        def("fault.evictions", "count", "lower", "fault",
            "in-flight requests drained"),
        def("fault.retries", "count", "lower", "fault",
            "re-offers injected"),
        selfTime("plan.search_s", "plan",
            "host self time in CapacityPlanner::plan"),
        def("plan.enumerated", "count", "lower", "plan",
            "candidates enumerated"),
        def("plan.simulated", "count", "lower", "plan",
            "candidates replayed"),
        def("plan.prune_ratio", "fraction", "higher", "plan",
            "pruned / enumerated"),
        def("obs.trace_overhead_frac", "fraction", "lower", "obs",
            "fastest traced op / fastest untraced op - 1"),
        def("bench.cpu_s", "s", "lower", "bench",
            "process CPU seconds per traced iteration"),
        selfTime("bench.other_s", "bench",
            "traced wall time in spans no layer claims, or in no "
            "span"),
        def("bench.traced_wall_s", "s", "lower", "bench",
            "wall time of one traced iteration; the *_s self times "
            "above plus bench.other_s sum to it"),
    };
    return defs;
}

bool
validMetricName(const std::string &name)
{
    if (name.empty() || name.size() > 64 || !std::isalnum(
            static_cast<unsigned char>(name.front())))
        return false;
    for (const char c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_'
            && c != '.' && c != '-')
            return false;
    }
    return true;
}

void
printResult(const RunResult &result,
            const std::vector<MetricDef> &defs, std::ostream &os)
{
    if (result.metrics.size() != defs.size())
        throw std::runtime_error("result holds "
                                 + std::to_string(result.metrics.size())
                                 + " metrics, declared "
                                 + std::to_string(defs.size()));
    std::string json = "{\"correct\": ";
    json += result.failed == 0 && result.attempted > 0 ? "true"
                                                       : "false";
    json += ", \"attempted\": " + std::to_string(result.attempted);
    json += ", \"failed\": " + std::to_string(result.failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : defs) {
        const auto it = result.metrics.find(d.name);
        if (it == result.metrics.end())
            throw std::runtime_error("metric " + d.name
                                     + " was not measured");
        if (!std::isfinite(it->second))
            throw std::runtime_error("metric " + d.name
                                     + " is not finite");
        const std::string v = fullDigits(it->second);
        os << "metric " << d.name << " " << v << " " << d.unit
           << "\n";
        json += first ? "" : ", ";
        json += "\"" + d.name + "\": {\"value\": " + v
            + ", \"unit\": \"" + d.unit + "\"}";
        first = false;
    }
    json += "}}";
    os << json << std::endl;
}

void
printDeclarations(std::ostream &os)
{
    const auto emit = [&os](const char *kind,
                            const std::vector<MetricDef> &defs) {
        for (const MetricDef &d : defs)
            os << kind << "\t" << d.name << "\t" << d.unit << "\t"
               << d.better << "\t" << d.layer << "\t" << d.what
               << "\n";
    };
    emit("end_to_end", endToEndMetrics());
    emit("per_layer", perLayerMetrics());
}

} // namespace perfbench
