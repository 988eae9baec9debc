#include "workloads.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "bench_util.hh"
#include "common/math_utils.hh"
#include "costmodel/cost_table_cache.hh"
#include "dpipe/partition.hh"
#include "dpipe/pipeline.hh"
#include "env.hh"
#include "expected.hh"
#include "fault/fault_server.hh"
#include "fleet/fleet_sim.hh"
#include "model/cascades.hh"
#include "model/pe_mapping.hh"
#include "multichip/cluster.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"
#include "plan/planner.hh"
#include "schedule/sweep.hh"
#include "serve/workload.hh"
#include "sim/compare.hh"
#include "spans.hh"

namespace perfbench
{

namespace
{

using namespace transfusion;
using Clock = std::chrono::steady_clock;
using schedule::StrategyKind;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * The fastest sample.  Other tenants of a shared host only ever add
 * time to an operation; on the reference box they moved the median
 * of one run by up to 40% and the minimum much less, so operation
 * times are reported as best-of-N.
 */
double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

/** Where the default seed's expected outputs of `workload` live. */
std::string
expectedPath(const std::string &workload)
{
    return std::string(PERFBENCH_EXPECTED_DIR) + "/" + workload + ".txt";
}

/** Run `fn` inside a span named `name`; returns what fn returns. */
template <class Fn>
auto
spanned(const char *name, Fn &&fn)
{
    obs::SpanGuard guard(name);
    return fn();
}

/** What one timed operation produced. */
struct OpOutput
{
    Digest digest;
    double modeled_latency_s = 0;
    /** Sweep points / plan candidates / requests retired. */
    std::int64_t items = 0;
    /** Human-readable result lines. */
    std::vector<std::string> summary;
};

/** Host samples keyed by item (sweep point, trace, fault schedule). */
using Samples = std::map<std::string, std::vector<double>>;

class Workload
{
  public:
    explicit Workload(const RunConfig &config) : cfg_(config) {}
    virtual ~Workload() = default;

    /** Build the inputs the timed operation needs (from the seed). */
    virtual void setup() = 0;
    /** One timed operation; callable repeatedly after setup(). */
    virtual OpOutput op() = 0;
    /** Invariant checks on the most recent op(). */
    virtual void check(CheckTally &tally) const = 0;
    /** Traced only: direct calls into layers the op hides. */
    virtual void probe() {}
    /**
     * Host time of one op from the untraced runs: the sum over items
     * of each item's best time when the op times its items (sweep
     * points, fleet and fault replays), else the best of N whole ops.
     */
    double bestOpSeconds(const std::vector<double> &op_s) const
    {
        if (samples.empty())
            return fastest(op_s);
        double sum = 0;
        for (const auto &[item, times] : samples)
            sum += fastest(times);
        return sum;
    }

    /** Per-item host times of the ops: sweep points, replays. */
    Samples samples;

  protected:
    const RunConfig &cfg_;
};

// ---------------------------------------------------------------
// paper_sweep

class PaperSweep final : public Workload
{
  public:
    using Workload::Workload;

    void setup() override
    {
        opts_ = bench::sweepOptions();
        opts_.threads = kThreads;
        opts_.evaluator.mcts.seed = cfg_.seed;
        if (cfg_.tiny) {
            opts_.evaluator.mcts.iterations = 64;
            points_ = schedule::Sweep::grid(
                { arch::edgeArch() }, { model::bertBase() },
                { 1024, 4096 });
        } else {
            points_ = schedule::Sweep::grid(
                { arch::cloudArch(), arch::edgeArch() },
                model::allModels(), sim::paperSequenceSweep());
        }
        // The Einsum IR of every point, as its evaluators build it.
        dags_.clear();
        for (const auto &p : points_) {
            for (const model::LayerKind kind : model::allLayerKinds())
                dags_.push_back(model::buildCascade(kind, p.cfg)
                                    .buildDag());
            dags_.push_back(
                model::buildUnfusedMhaCascade().buildDag());
        }
    }

    OpOutput op() override
    {
        // The grid point by point, each timed on its own: a point
        // takes milliseconds, so the sum of each point's best time is
        // far steadier on a noisy host than the best whole sweep.
        const schedule::Sweep sweep(opts_);
        last_.clear();
        spanned("schedule.sweep", [&] {
            for (const auto &p : points_) {
                const auto t0 = Clock::now();
                auto point = spanned("schedule.point",
                                     [&] { return sweep.run({ p }); });
                samples[p.label()].push_back(secondsSince(t0));
                last_.push_back(std::move(point.front()));
            }
        });
        OpOutput out;
        out.items = static_cast<std::int64_t>(last_.size());
        std::vector<double> tf_latency;
        for (const auto &m : last_) {
            for (const auto &[kind, r] : m.results) {
                const std::string key = m.point.label() + "/"
                    + schedule::toString(kind);
                out.digest.add(key + "/latency_s", r.total.latency_s);
                out.digest.add(key + "/energy_j",
                               r.total.energy.total());
            }
            tf_latency.push_back(
                m.at(StrategyKind::TransFusion).total.latency_s);
        }
        out.modeled_latency_s = geometricMean(tf_latency);
        out.summary = accuracyLines();
        return out;
    }

    void check(CheckTally &tally) const override
    {
        for (const auto &dag : dags_)
            tally.check(static_cast<int>(dag.topoSort().size())
                            == dag.nodeCount(),
                        "cascade DAG is not acyclic");
        tally.check(last_.size() == points_.size(),
                    "sweep returned a wrong point count");
        for (const auto &m : last_) {
            bool ok = m.results.size() == schedule::allStrategies().size();
            for (const auto &[kind, r] : m.results)
                ok = ok && std::isfinite(r.total.latency_s)
                    && r.total.latency_s > 0
                    && std::isfinite(r.total.energy.total())
                    && r.total.energy.total() > 0;
            tally.check(ok, m.point.label()
                                + ": missing or non-positive result");
        }
    }

    void probe() override
    {
        // Counters of these direct calls stay out of the op's counts.
        obs::Registry scratch;
        obs::ScopedRegistry scope(scratch);
        for (const auto &p : points_) {
            const schedule::Evaluator eval(p.arch, p.cfg, p.seq,
                                           opts_.evaluator);
            for (const model::LayerKind kind :
                 model::allLayerKinds()) {
                const auto cascade =
                    spanned("model.build_cascade", [&] {
                        return model::buildCascade(kind, p.cfg);
                    });
                const auto dag = spanned("einsum.dag_build", [&] {
                    return cascade.buildDag();
                });
                spanned("dpipe.enumerate_bipartitions", [&] {
                    return dpipe::enumerateBipartitions(dag);
                });
                spanned("dpipe.schedule_pipeline", [&] {
                    return dpipe::schedulePipeline(
                        cascade, eval.dims(), p.arch,
                        model::peMapping(kind),
                        opts_.evaluator.pipeline);
                });
            }
        }
    }

  private:
    /** Modeled geomean speedups per arch beside the paper's. */
    std::vector<std::string> accuracyLines() const
    {
        struct Ref
        {
            const char *arch;
            StrategyKind baseline;
            const char *name;
            double paper;
        };
        static const Ref refs[] = {
            { "cloud", StrategyKind::FuseMaxLayerFuse, "LayerFuse", 1.3 },
            { "cloud", StrategyKind::FuseMax, "FuseMax", 1.6 },
            { "cloud", StrategyKind::Flat, "FLAT", 7.0 },
            { "edge", StrategyKind::FuseMaxLayerFuse, "LayerFuse", 1.8 },
            { "edge", StrategyKind::FuseMax, "FuseMax", 2.2 },
            { "edge", StrategyKind::Flat, "FLAT", 3.2 },
        };
        std::vector<std::string> lines;
        for (const Ref &ref : refs) {
            std::vector<double> speedups;
            for (const auto &m : last_)
                if (m.point.arch.name == ref.arch)
                    speedups.push_back(
                        m.at(ref.baseline).total.latency_s
                        / m.at(StrategyKind::TransFusion)
                              .total.latency_s);
            if (speedups.empty())
                continue;
            const double modeled = geometricMean(speedups);
            std::ostringstream os;
            os.precision(4);
            os << "accuracy " << ref.arch << " vs_" << ref.name
               << " modeled_speedup_geomean=" << modeled
               << "x paper=" << ref.paper
               << "x modeled/paper=" << modeled / ref.paper;
            lines.push_back(os.str());
        }
        if (!lines.empty())
            lines.push_back(
                "accuracy note: the model is validated only against "
                "these published ratios; EXPERIMENTS.md explains the "
                "cloud FLAT gap");
        return lines;
    }

    schedule::SweepOptions opts_;
    std::vector<schedule::SweepPoint> points_;
    std::vector<einsum::Dag> dags_;
    std::vector<schedule::StrategyMetrics> last_;
};

// ---------------------------------------------------------------
// plan_search

class PlanSearch final : public Workload
{
  public:
    using Workload::Workload;

    void setup() override
    {
        // ext_capacity_planner's search: t5-small on edge clusters,
        // a burst that prunes at least half the space analytically.
        serve::WorkloadOptions wl;
        wl.arrival_per_s = 2000.0;
        wl.requests = cfg_.tiny ? 24 : 96;
        wl.prompt = { 128, 256 };
        wl.output = { 128, 256 };

        plan::SloSpec slo;
        slo.p99_latency_s = 1.5;
        slo.max_reject_rate = 0.0;

        plan::PlannerOptions popts;
        popts.serve.max_batch = 4;
        popts.serve.cost.cache_samples = 3;
        popts.serve.cost.prefill_samples = 3;
        popts.serve.cost.evaluator.mcts.iterations = 32;
        popts.threads = kThreads;

        space_ = plan::SearchSpace{};
        space_.clusters = { "edge" };
        space_.chip_counts = cfg_.tiny ? std::vector<int>{ 1, 2 }
                                       : std::vector<int>{ 1, 2, 4 };
        space_.replica_counts = space_.chip_counts;
        space_.policies = { fleet::PolicyKind::RoundRobin,
                            fleet::PolicyKind::LeastOutstanding };
        planner_.emplace(model::t5Small(), wl, slo, popts);
    }

    OpOutput op() override
    {
        last_ = spanned("plan.plan", [&] {
            return planner_->plan(space_, cfg_.seed);
        });
        OpOutput out;
        Digest &d = out.digest;
        d.add("enumerated", last_.enumerated);
        d.add("memory_unfit", last_.memory_unfit);
        d.add("pruned", last_.pruned);
        d.add("simulated", last_.simulated);
        d.add("feasible", last_.feasible);
        d.add("best", last_.best ? static_cast<std::int64_t>(*last_.best)
                                 : std::int64_t{ -1 });
        for (std::size_t i = 0; i < last_.frontier.size(); ++i)
            d.add("frontier." + std::to_string(i),
                  static_cast<std::int64_t>(last_.frontier[i]));
        for (std::size_t i = 0; i < last_.candidates.size(); ++i) {
            const auto &c = last_.candidates[i];
            const std::string k = "candidate." + std::to_string(i) + ".";
            d.add(k + "status", static_cast<std::int64_t>(c.status));
            d.add(k + "analytic_tokens_per_s", c.analytic_tokens_per_s);
            if (!c.simulated)
                continue;
            d.add(k + "cost", c.objectives.cost);
            d.add(k + "p99_s", c.objectives.p99_latency_s);
            d.add(k + "throughput_rps", c.objectives.throughput_rps);
            d.add(k + "reject_rate", c.reject_rate);
        }
        out.items = last_.enumerated;
        if (last_.best) {
            const auto &b = last_.bestOutcome();
            out.modeled_latency_s = b.objectives.p99_latency_s;
            std::ostringstream os;
            os.precision(6);
            os << "plan best=" << b.spec.toString()
               << " plan_best_cost=" << b.objectives.cost
               << " modeled_p99_s=" << b.objectives.p99_latency_s
               << " (" << last_.summary() << ")";
            out.summary.push_back(os.str());
        } else {
            out.modeled_latency_s = NAN;
        }
        return out;
    }

    void check(CheckTally &tally) const override
    {
        const auto &r = last_;
        tally.check(r.enumerated
                        == static_cast<std::int64_t>(r.candidates.size()),
                    "plan: enumerated != candidates");
        tally.check(r.memory_unfit + r.pruned + r.simulated
                        == r.enumerated,
                    "plan: unfit + pruned + simulated != enumerated");
        tally.check(r.best.has_value(), "plan: nothing feasible");
        if (!r.best)
            return;
        tally.check(std::count(r.frontier.begin(), r.frontier.end(),
                               *r.best) == 1,
                    "plan: best is not on the frontier");
        const double best_cost = r.bestOutcome().objectives.cost;
        for (const auto &c : r.candidates)
            if (c.status == plan::CandidateStatus::Feasible)
                tally.check(c.objectives.cost >= best_cost,
                            "plan: a feasible candidate is cheaper "
                            "than best");
        for (const std::size_t i : r.frontier)
            tally.check(r.candidates.at(i).status
                            == plan::CandidateStatus::Feasible,
                        "plan: infeasible frontier member");
    }

  private:
    plan::SearchSpace space_;
    std::optional<plan::CapacityPlanner> planner_;
    plan::PlanResult last_;
};

// ---------------------------------------------------------------
// fleet_chaos and fault_replan share ledger digests.

void
addServeLedger(Digest &d, const std::string &k,
               const serve::ServeMetrics &m)
{
    d.add(k + "offered", m.offered);
    d.add(k + "completed", m.completed);
    d.add(k + "rejected", m.rejected);
    d.add(k + "generated_tokens", m.generated_tokens);
    d.add(k + "prefill_rounds", m.prefill_rounds);
    d.add(k + "decode_rounds", m.decode_rounds);
    d.add(k + "makespan_s", m.makespan_s);
    d.add(k + "energy_j", m.energyJoules());
    if (!m.latency_s.empty()) {
        d.add(k + "latency_p50_s", m.latency_s.percentile(50));
        d.add(k + "latency_p99_s", m.latency_s.percentile(99));
    }
}

std::string
ledgerLine(const char *what, std::int64_t offered,
           std::int64_t completed, std::int64_t rejected,
           double p99_s)
{
    std::ostringstream os;
    os.precision(6);
    os << what << " offered=" << offered << " completed=" << completed
       << " rejected=" << rejected << " modeled_reject_frac="
       << static_cast<double>(rejected)
            / static_cast<double>(std::max<std::int64_t>(offered, 1))
       << " modeled_p99_s=" << p99_s;
    return os.str();
}

class FleetChaos final : public Workload
{
  public:
    using Workload::Workload;

    static constexpr int kReplicas = 8;
    static constexpr int kChips = 2;

    void setup() override
    {
        serve::WorkloadOptions wl;
        wl.requests = cfg_.tiny ? 500 : 2500;
        wl.arrival_per_s = 300.0;
        wl.prompt = { 128, 512 };
        wl.output = { 16, 128 };

        fleet::FleetOptions fo;
        fo.serve.max_batch = 16;
        fo.serve.cost.cache_samples = 3;
        fo.serve.cost.prefill_samples = 3;
        fo.serve.cost.evaluator.mcts.iterations = 64;
        fo.health.enabled = true;
        fo.health.depth_breach = 8;
        fo.health.breach_streak = 3;
        fo.health.cooldown_updates = 16;
        fo.health.probe_updates = 4;
        fo.threads = 1;
        fo.plan_threads = kThreads;

        sim_.reset();
        sim_ = std::make_unique<fleet::FleetSimulator>(
            spanned("serve.calibration", [&] {
                return fleet::FleetSimulator::uniform(
                    kReplicas, multichip::edgeCluster(kChips),
                    model::t5Small(), wl, fo);
            }));

        // Forty traces, each replayed on its own: a replay takes a few
        // milliseconds, so the sum of each replay's best time is far
        // steadier on a noisy host than the best of one long replay.
        // An incident per replica every 10 s of trace (320 short ones
        // per op), so a seed changes where faults land but hardly how
        // much of the op they cover.
        traces_.clear();
        runs_.clear();
        const int count = cfg_.tiny ? 2 : 40;
        for (int t = 0; t < count; ++t) {
            const std::uint64_t seed =
                cfg_.seed * 1000003 + static_cast<std::uint64_t>(t);
            traces_.push_back(serve::generateWorkload(wl, seed));
            fault::FaultScheduleOptions so;
            so.horizon_s = traces_.back().back().arrival_s;
            so.incidents =
                std::max(1, static_cast<int>(so.horizon_s / 10));
            so.mean_outage_s = 1.5;
            so.link_degrade_prob = 0.3;
            so.slowdown_prob = 0.3;
            so.mean_slowdown_s = 4.0;
            so.max_multiplier = 2.0;
            fleet::FleetRunOptions run;
            run.policy = fleet::PolicyKind::PowerOfTwo;
            run.seed = seed;
            for (int r = 0; r < kReplicas; ++r)
                run.faults.push_back(fault::generateFaultSchedule(
                    so, kChips,
                    seed * 8 + static_cast<std::uint64_t>(r)));
            runs_.push_back(std::move(run));
        }
    }

    OpOutput op() override
    {
        last_.clear();
        OpOutput out;
        Histogram latency;
        std::int64_t offered = 0, completed = 0, rejected = 0;
        for (std::size_t t = 0; t < traces_.size(); ++t) {
            const auto t0 = Clock::now();
            last_.push_back(spanned("fleet.replay", [&] {
                return sim_->run(traces_[t], runs_[t]);
            }));
            samples["trace." + std::to_string(t)].push_back(
                secondsSince(t0));
            const auto &m = last_.back();
            addFleetLedger(out.digest, "trace." + std::to_string(t) + ".",
                           m);
            latency.merge(m.latency_s);
            offered += m.offered;
            completed += m.completed;
            rejected += m.rejected;
        }
        out.items = completed + rejected;
        out.modeled_latency_s = latency.mean();
        out.summary.push_back(ledgerLine("fleet", offered, completed,
                                         rejected,
                                         latency.percentile(99)));
        return out;
    }

    void check(CheckTally &tally) const override
    {
        for (std::size_t t = 0; t < last_.size(); ++t) {
            const auto &m = last_[t];
            tally.check(m.offered
                            == static_cast<std::int64_t>(
                                traces_[t].size()),
                        "fleet: offered != trace length");
            tally.check(m.offered == m.completed + m.rejected,
                        "fleet: offered != completed + rejected");
            std::int64_t replica_sheds = 0, replica_completed = 0;
            for (const auto &r : m.replicas) {
                tally.check(r.offered == r.completed + r.rejected,
                            "fleet: replica offered != completed + "
                            "rejected");
                replica_sheds += r.rejected;
                replica_completed += r.completed;
            }
            tally.check(replica_completed == m.completed,
                        "fleet: replica completions do not add up");
            tally.check(m.rejected
                            == replica_sheds + m.failover_exhausted
                                + m.held_rejected + m.brownout_sheds,
                        "fleet: reject ledger does not add up");
        }
    }

  private:
    static void addFleetLedger(Digest &d, const std::string &k,
                               const fleet::FleetMetrics &m)
    {
        d.add(k + "offered", m.offered);
        d.add(k + "completed", m.completed);
        d.add(k + "rejected", m.rejected);
        d.add(k + "generated_tokens", m.generated_tokens);
        d.add(k + "routed", m.routed);
        d.add(k + "held_rejected", m.held_rejected);
        d.add(k + "replica_downs", m.replica_downs);
        d.add(k + "replica_ups", m.replica_ups);
        d.add(k + "slowdown_transitions", m.slowdown_transitions);
        d.add(k + "breaker_opens", m.breaker_opens);
        d.add(k + "breaker_reopens", m.breaker_reopens);
        d.add(k + "breaker_closes", m.breaker_closes);
        d.add(k + "breaker_open_s", m.breaker_open_s);
        d.add(k + "brownout_sheds", m.brownout_sheds);
        d.add(k + "failover_drained", m.failover_drained);
        d.add(k + "failover_reroutes", m.failover_reroutes);
        d.add(k + "failover_exhausted", m.failover_exhausted);
        d.add(k + "failover_wasted_tokens", m.failover_wasted_tokens);
        d.add(k + "makespan_s", m.makespan_s);
        d.add(k + "energy_j", m.energy_j);
        d.add(k + "chip_seconds", m.chip_seconds);
        d.add(k + "latency_p50_s", m.latency_s.percentile(50));
        d.add(k + "latency_p99_s", m.latency_s.percentile(99));
        d.add(k + "ttft_p99_s", m.ttft_s.percentile(99));
        for (std::size_t i = 0; i < m.replicas.size(); ++i)
            addServeLedger(d, k + "replica." + std::to_string(i) + ".",
                           m.replicas[i]);
    }

    std::unique_ptr<fleet::FleetSimulator> sim_;
    std::vector<std::vector<serve::Request>> traces_;
    std::vector<fleet::FleetRunOptions> runs_;
    std::vector<fleet::FleetMetrics> last_;
};

// ---------------------------------------------------------------
// fault_replan

class FaultReplan final : public Workload
{
  public:
    using Workload::Workload;

    static constexpr int kChips = 4;

    void setup() override
    {
        serve::WorkloadOptions wl;
        wl.requests = cfg_.tiny ? 500 : 8000;
        wl.arrival_per_s = 40.0;
        wl.prompt = { 128, 512 };
        wl.output = { 16, 128 };

        fault::FaultServeOptions fo;
        fo.serve.max_batch = 16;
        fo.serve.cost.cache_samples = 3;
        fo.serve.cost.prefill_samples = 3;
        fo.serve.cost.evaluator.mcts.iterations = 64;
        fo.plan_threads = kThreads;

        server_.reset();
        server_ = std::make_unique<fault::FaultTolerantServer>(
            spanned("serve.calibration", [&] {
                return fault::FaultTolerantServer(
                    multichip::edgeCluster(kChips), model::t5Small(),
                    wl, fo);
            }));
        trace_ = serve::generateWorkload(wl, cfg_.seed);

        // Chip losses and slowdowns only: degraded tables are keyed
        // by the surviving chip count, so every pass calibrates the
        // same few configurations (a link-degrade factor is a fresh
        // key each time and would make the work depend on the seed).
        fault::FaultScheduleOptions so;
        so.horizon_s = trace_.back().arrival_s;
        so.incidents = 8;
        so.mean_outage_s = so.horizon_s / 30;
        so.link_degrade_prob = 0.0;
        so.slowdown_prob = 0.2;
        so.mean_slowdown_s = so.horizon_s / 30;
        schedules_.clear();
        const int count = cfg_.tiny ? 2 : 64;
        for (int i = 0; i < count; ++i)
            schedules_.push_back(fault::generateFaultSchedule(
                so, kChips,
                cfg_.seed * 7919 + static_cast<std::uint64_t>(i)));
    }

    OpOutput op() override
    {
        last_.clear();
        OpOutput out;
        Histogram latency;
        std::int64_t offered = 0, completed = 0, rejected = 0;
        for (std::size_t i = 0; i < schedules_.size(); ++i) {
            const auto t0 = Clock::now();
            last_.push_back(spanned("fault.replay", [&] {
                return server_->run(trace_, schedules_[i]);
            }));
            samples["schedule." + std::to_string(i)].push_back(
                secondsSince(t0));
            const auto &m = last_.back();
            const std::string k = "schedule." + std::to_string(i) + ".";
            addServeLedger(out.digest, k, m.serve);
            out.digest.add(k + "fault_events", m.fault_events);
            out.digest.add(k + "replans", m.replans);
            out.digest.add(k + "evictions", m.evictions);
            out.digest.add(k + "retries", m.retries);
            out.digest.add(k + "retry_completed", m.retry_completed);
            out.digest.add(k + "retry_exhausted", m.retry_exhausted);
            out.digest.add(k + "wasted_tokens", m.wasted_tokens);
            out.digest.add(k + "degraded_s", m.degraded_s);
            out.digest.add(k + "outage_s", m.outage_s);
            latency.merge(m.serve.latency_s);
            offered += m.serve.offered;
            completed += m.serve.completed;
            rejected += m.serve.rejected;
        }
        out.items = completed + rejected;
        out.modeled_latency_s = latency.mean();
        out.summary.push_back(ledgerLine("fault", offered, completed,
                                         rejected,
                                         latency.percentile(99)));
        return out;
    }

    void check(CheckTally &tally) const override
    {
        for (const auto &m : last_) {
            tally.check(m.serve.offered
                            == static_cast<std::int64_t>(trace_.size()),
                        "fault: offered != trace length");
            tally.check(m.serve.offered
                            == m.serve.completed + m.serve.rejected,
                        "fault: offered != completed + rejected");
        }
    }

  private:
    std::unique_ptr<fault::FaultTolerantServer> server_;
    std::vector<serve::Request> trace_;
    std::vector<fault::FaultSchedule> schedules_;
    std::vector<fault::FaultServeMetrics> last_;
};

std::unique_ptr<Workload>
makeWorkload(const RunConfig &config)
{
    if (config.workload == "paper_sweep")
        return std::make_unique<PaperSweep>(config);
    if (config.workload == "plan_search")
        return std::make_unique<PlanSearch>(config);
    if (config.workload == "fleet_chaos")
        return std::make_unique<FleetChaos>(config);
    if (config.workload == "fault_replan")
        return std::make_unique<FaultReplan>(config);
    throw std::invalid_argument("unknown workload '" + config.workload
                                + "'");
}

// ---------------------------------------------------------------
// Traced-run analysis

/** Self-time metric each span name is charged to; null = none
 *  (its time lands in bench.other_s). */
const char *
selfTimeMetric(const std::string &span)
{
    static const std::pair<const char *, const char *> table[] = {
        { "evaluator.evaluate/", "schedule.evaluate_s" },
        { "stack_evaluator.evaluate/", "schedule.evaluate_s" },
        { "schedule.sweep", "schedule.sweep_s" },
        { "schedule.point", "schedule.sweep_s" },
        { "model.build_cascade", "model.build_cascade_s" },
        { "einsum.dag_build", "einsum.dag_build_s" },
        { "dpipe.enumerate_bipartitions",
          "dpipe.enumerate_bipartitions_s" },
        { "dpipe.schedule_pipeline", "dpipe.schedule_s" },
        { "tileseek.search", "tileseek.search_s" },
        { "multichip.plan_shards", "multichip.plan_shards_s" },
        { "multichip.partition_layers", "multichip.plan_shards_s" },
        { "multichip.sharded_calibration",
          "multichip.sharded_calibration_s" },
        { "multichip.sharded_evaluate/",
          "multichip.sharded_calibration_s" },
        { "serve.calibration", "serve.calibration_s" },
        { "fleet.run", "fleet.run_s" },
        { "fleet.replay", "fleet.run_s" },
        { "fault.run", "fault.run_s" },
        { "fault.replay", "fault.run_s" },
        { "plan.capacity_search", "plan.search_s" },
        { "plan.plan", "plan.search_s" },
    };
    for (const auto &[name, metric] : table) {
        const std::string n = name;
        const bool prefix = n.back() == '/';
        if (prefix ? span.rfind(n, 0) == 0 : span == n)
            return metric;
    }
    return nullptr;
}

/** Sum of counters named `name`, bare or under any merge prefix
 *  ("fleet/replica.3.", "plan/candidate.7."). */
double
counter(const obs::RegistrySnapshot &snap, const std::string &name)
{
    double total = 0;
    for (const auto &[key, value] : snap.counters) {
        if (key == name
            || (key.size() > name.size()
                && key.compare(key.size() - name.size(), name.size(),
                               name) == 0
                && key[key.size() - name.size() - 1] == '.'))
            total += static_cast<double>(value);
    }
    return total;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** (median over items of each item's median, max of the same). */
std::pair<double, double>
itemMedians(const Samples &samples)
{
    std::vector<double> medians;
    for (const auto &[item, v] : samples)
        medians.push_back(median(v));
    if (medians.empty())
        return { 0, 0 };
    return { median(medians),
             *std::max_element(medians.begin(), medians.end()) };
}

/**
 * pinToQuietestCpu() at most once a second: the slow stretches it
 * dodges last tens of seconds, and every move starts the next op with
 * cold caches.
 */
void
repinEverySecond()
{
    static std::optional<Clock::time_point> last;
    if (last && Clock::now() - *last < std::chrono::seconds(1))
        return;
    pinToQuietestCpu();
    last = Clock::now();
}

struct Measured
{
    std::vector<double> setup_s;
    std::vector<double> op_s;
    OpOutput first;
    /** Peak resident set through the first set-ups and op: later
     *  repeats only add allocator growth, more of it the more ops a
     *  run fits in, so a later reading follows the host's speed. */
    double peak_rss_mb = 0;
};

/** Steps 1-3 of the file comment; `op_seconds` bounds step 2. */
Measured
measureUntraced(Workload &w, const RunConfig &config,
                double op_seconds, CheckTally &tally,
                std::ostream &log)
{
    auto &cache = costmodel::CostTableCache::instance();
    Measured m;
    // A unit is M back-to-back set-ups, M chosen so a unit takes at
    // least 20 ms: a set-up of a few microseconds is below the
    // clock's noise floor on its own.  Units alternate with the ops,
    // so the median samples the whole run rather than its first
    // second (the host's speed drifts over seconds).
    const auto setupOnce = [&] {
        cache.clear();
        const auto t0 = Clock::now();
        w.setup();
        return secondsSince(t0);
    };
    const double first = setupOnce();
    const int per_unit = static_cast<int>(
        std::clamp(std::ceil(0.02 / std::max(first, 1e-9)), 1.0, 1e5));
    const auto setupUnit = [&] {
        double unit = 0;
        for (int i = 0; i < per_unit; ++i)
            unit += setupOnce();
        m.setup_s.push_back(unit / per_unit);
    };

    setupUnit();
    const auto ops_begin = Clock::now();
    do {
        repinEverySecond();
        cache.clear();
        const auto t0 = Clock::now();
        OpOutput out = w.op();
        m.op_s.push_back(secondsSince(t0));
        const std::string op = "op " + std::to_string(m.op_s.size());
        CheckTally checks;
        w.check(checks);
        if (config.seed == kDefaultSeed && !config.tiny)
            compareExpected(out.digest, expectedPath(config.workload),
                            checks);
        if (m.op_s.size() == 1) {
            m.first = std::move(out);
            m.peak_rss_mb = peakRssMiB();
        } else {
            checks.check(out.digest == m.first.digest,
                         op + " differs from the first op");
        }
        tally.checkUnit(checks, op);
        setupUnit();
    } while (m.op_s.size() < 2 || secondsSince(ops_begin) < op_seconds);

    for (const auto &line : m.first.summary)
        log << line << "\n";
    return m;
}

MetricValues
tracedMetrics(Workload &w, const RunConfig &config,
              const Measured &untraced, CheckTally &tally)
{
    auto &cache = costmodel::CostTableCache::instance();
    auto &session = obs::TraceSession::global();
    obs::Registry registry;
    std::vector<double> traced_op_s;
    double hits = 0, misses = 0, entries = 0;
    const auto addStats = [&](bool after_op) {
        const auto s = cache.stats();
        hits += static_cast<double>(s.hits);
        misses += static_cast<double>(s.misses);
        if (after_op)
            entries += static_cast<double>(s.entries);
    };

    w.samples.clear();
    int iterations = 0;
    const double cpu0 = processCpuSeconds();
    session.start();
    {
        obs::ScopedRegistry scope(registry);
        const auto begin = Clock::now();
        do {
            repinEverySecond();
            obs::SpanGuard iteration("bench.iteration");
            cache.clear();
            w.setup();
            addStats(false);
            cache.clear();
            const auto t0 = Clock::now();
            OpOutput out =
                spanned("bench.op", [&] { return w.op(); });
            traced_op_s.push_back(secondsSince(t0));
            addStats(true);
            CheckTally checks;
            w.check(checks);
            checks.check(out.digest == untraced.first.digest,
                         "traced op differs from the untraced ones");
            tally.checkUnit(checks, "traced op "
                                        + std::to_string(iterations + 1));
            w.probe();
            ++iterations;
        } while (iterations < 50
                 && secondsSince(begin) < config.seconds / 2);
    }
    session.stop();
    const double cpu_s = processCpuSeconds() - cpu0;
    const double n = iterations;

    std::vector<Span> spans;
    int root_tid = -1;
    double begin_s = INFINITY, end_s = -INFINITY;
    std::vector<std::pair<double, double>> op_windows;
    double evaluations = 0;
    for (const auto &e : session.events()) {
        Span s{ e.name, e.ts_us * 1e-6, (e.ts_us + e.dur_us) * 1e-6,
                e.tid, e.depth };
        if (e.name == "bench.iteration") {
            root_tid = e.tid;
            begin_s = std::min(begin_s, s.start_s);
            end_s = std::max(end_s, s.end_s);
        } else if (e.name == "bench.op") {
            op_windows.emplace_back(s.start_s, s.end_s);
        }
        spans.push_back(std::move(s));
    }
    // Evaluations of the op itself (not of the probes), and the
    // time workers spent in them.
    double evaluate_busy_s = 0, op_wall_s = 0;
    for (const auto &[a, b] : op_windows)
        op_wall_s += b - a;
    for (const Span &s : spans) {
        if (s.name.rfind("evaluator.evaluate/", 0) != 0)
            continue;
        for (const auto &[a, b] : op_windows) {
            if (s.start_s >= a && s.start_s < b) {
                ++evaluations;
                evaluate_busy_s += s.end_s - s.start_s;
            }
        }
    }
    const SelfTimes self = selfTimes(spans, root_tid, begin_s, end_s);

    MetricValues v;
    for (const MetricDef &d : perLayerMetrics())
        if (d.self_time)
            v[d.name] = 0;
    // Spans no layer claims, and instants no span covers, are
    // bench.other_s.  The decomposition must account for the traced
    // wall time exactly once.
    double charged = 0, other = self.uncovered_s;
    for (const auto &[name, seconds] : self.by_name) {
        if (const char *metric = selfTimeMetric(name)) {
            v[metric] += seconds / n;
            charged += seconds;
        } else {
            other += seconds;
        }
    }
    const double wall = end_s - begin_s;
    CheckTally decomposition;
    decomposition.check(other >= 0, "bench.other_s is negative");
    decomposition.check(std::abs(charged + other - wall) <= 1e-6 * wall,
                        "self times + bench.other_s != traced wall");
    tally.checkUnit(decomposition, "traced span decomposition");
    v["bench.traced_wall_s"] = wall / n;
    v["bench.other_s"] = other / n;
    v["bench.cpu_s"] = cpu_s / n;
    v["obs.trace_overhead_frac"] =
        fastest(traced_op_s) / fastest(untraced.op_s) - 1.0;

    const bool sweep = config.workload == "paper_sweep";
    const bool fault = config.workload == "fault_replan";
    const auto [item_p50, item_max] = itemMedians(w.samples);
    v["schedule.evaluations"] = evaluations / n;
    v["schedule.point_s_p50"] = sweep ? item_p50 : 0;
    v["schedule.point_s_max"] = sweep ? item_max : 0;
    v["schedule.sweep_busy_frac"] = sweep
        ? ratio(evaluate_busy_s, op_wall_s)
        : 0;
    v["fault.replay_s_p50"] = fault ? item_p50 : 0;
    v["fault.replay_s_max"] = fault ? item_max : 0;

    const auto snap = registry.snapshot();
    const auto c = [&](const char *name) {
        return counter(snap, name) / n;
    };
    v["dpipe.bipartitions_tried"] =
        c("dpipe/pipeline/bipartitions_tried");
    v["dpipe.orders_tried"] = c("dpipe/dp/orders_tried");
    v["dpipe.orders_pruned"] = c("dpipe/dp/orders_pruned");
    v["dpipe.states_explored"] = c("dpipe/dp/states_explored");
    v["dpipe.plans"] = c("dpipe/pipeline/plans");
    v["dpipe.pipelined_ratio"] = ratio(
        c("dpipe/pipeline/pipelined_chosen"), v["dpipe.plans"]);
    v["tileseek.iterations"] = c("tileseek/iterations");
    v["tileseek.evaluations"] = c("tileseek/evaluations");
    v["tileseek.feasible_ratio"] = v["tileseek.evaluations"] > 0
        ? 1.0
            - ratio(c("tileseek/infeasible_leaves"),
                    v["tileseek.evaluations"])
        : 0.0;
    v["tileseek.best_cost_updates"] = c("tileseek/best_cost_updates");
    v["costmodel.cache_hits"] = hits / n;
    v["costmodel.cache_misses"] = misses / n;
    v["costmodel.cache_entries"] = entries / n;
    v["costmodel.cache_hit_ratio"] = ratio(hits, hits + misses);
    v["multichip.shard_plans"] = c("multichip.shard_plans");
    const double rounds =
        c("serve/prefill_rounds") + c("serve/decode_rounds");
    v["serve.rounds"] = rounds;
    v["serve.host_ns_per_round"] =
        ratio((v["fleet.run_s"] + v["fault.run_s"]) * 1e9, rounds);
    v["serve.admissions"] = c("serve/admissions");
    v["serve.sheds"] = c("serve/sheds");
    v["fleet.routed"] = c("fleet/routed");
    v["fleet.failover_reroutes"] = c("fleet/failover.reroutes");
    v["fleet.breaker_opens"] = c("fleet/breaker.opens");
    v["fleet.brownout_sheds"] = c("fleet/brownout.sheds");
    v["fault.replans"] = c("fault/replans");
    v["fault.evictions"] = c("fault/evictions");
    v["fault.retries"] = c("fault/retries");
    v["plan.enumerated"] = c("plan/enumerated");
    v["plan.simulated"] = c("plan/simulated");
    v["plan.prune_ratio"] =
        ratio(c("plan/pruned"), v["plan.enumerated"]);
    return v;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "paper_sweep", "plan_search", "fleet_chaos", "fault_replan"
    };
    return names;
}

RunResult
runWorkload(const RunConfig &config, std::ostream &log)
{
    auto w = makeWorkload(config);
    CheckTally tally;
    const Measured m = measureUntraced(
        *w, config, config.trace ? config.seconds / 2 : config.seconds,
        tally, log);
    const double op = w->bestOpSeconds(m.op_s);

    RunResult result;
    if (config.trace) {
        result.metrics = tracedMetrics(*w, config, m, tally);
    } else {
        result.metrics["setup_s"] = median(m.setup_s);
        result.metrics["host_op_s"] = op;
        result.metrics["peak_rss_mb"] = m.peak_rss_mb;
        result.metrics["modeled_latency_s"] = m.first.modeled_latency_s;
    }
    result.attempted = tally.attempted();
    result.failed = tally.failed();
    if (!config.trace)
        result.metrics["ops_passed_frac"] =
            1.0 - ratio(static_cast<double>(result.failed),
                        static_cast<double>(result.attempted));

    std::ostringstream os;
    os.precision(6);
    os << "workload " << config.workload << " setups="
       << m.setup_s.size() << " ops=" << m.op_s.size()
       << " items_per_op=" << m.first.items << " ";
    if (config.workload == "plan_search")
        os << "plan_s=" << op;
    else
        os << (config.workload == "paper_sweep" ? "points_per_s="
                                                : "requests_per_s=")
           << ratio(static_cast<double>(m.first.items), op);
    os
       << " failed_ops_frac="
       << ratio(static_cast<double>(result.failed),
                static_cast<double>(result.attempted));
    const auto [lo, hi] =
        std::minmax_element(m.op_s.begin(), m.op_s.end());
    os << "\nop_s n=" << m.op_s.size() << " min=" << *lo
       << " median=" << median(m.op_s) << " max=" << *hi;
    log << os.str() << "\n";
    for (const auto &f : tally.failures())
        log << "check failed: " << f << "\n";
    return result;
}

bool
writeExpectedDigest(const RunConfig &config, std::ostream &log)
{
    auto w = makeWorkload(config);
    costmodel::CostTableCache::instance().clear();
    w->setup();
    costmodel::CostTableCache::instance().clear();
    const OpOutput out = w->op();
    const std::string path = expectedPath(config.workload);
    if (!writeExpected(out.digest, path)) {
        log << "cannot write " << path << "\n";
        return false;
    }
    log << "wrote " << out.digest.entries().size() << " values to "
        << path << "\n";
    return true;
}

} // namespace perfbench
