/**
 * @file
 * google-benchmark microbenchmarks of the simulation cores: the
 * legacy linear-scan loops vs the event-heap cores, on the serve
 * layer alone and on the saturating 8-replica power-of-two fleet
 * scenario.  Each benchmark reports `rounds_per_s` — scheduler
 * rounds (prefill + decode) retired per wall-clock second — the
 * before/after figure the event-core rework is judged on (the
 * README's performance table comes from this binary).
 *
 * Replays only are timed: calibration happens once per core in
 * setup (and the CostTableCache collapses repeated setups).  Both
 * cores replay identical traces to identical metrics — the
 * differential harness (tests/integration/replay_diff_test.cc)
 * pins that; this binary measures the only difference left.
 */

#include <cstdint>
#include <memory>

#include <benchmark/benchmark.h>

#include "fault/fault_schedule.hh"
#include "fleet/fleet_sim.hh"
#include "serve/workload.hh"

namespace
{

using namespace transfusion;

/** Burst that saturates the replicas: deep queues, full batches,
 *  and thousands of rounds per replay. */
serve::WorkloadOptions
saturatingWorkload(int requests)
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 400.0;
    wl.requests = requests;
    wl.prompt = { 128, 256 };
    wl.output = { 64, 128 };
    return wl;
}

serve::ServeOptions
serveOptions(serve::SimCoreKind core)
{
    serve::ServeOptions o;
    o.strategy = schedule::StrategyKind::TransFusion;
    o.core = core;
    o.max_batch = 8;
    o.cost.cache_samples = 3;
    o.cost.prefill_samples = 3;
    o.cost.evaluator.mcts.iterations = 32;
    return o;
}

serve::SimCoreKind
coreOf(const benchmark::State &state)
{
    return state.range(0) == 0 ? serve::SimCoreKind::Legacy
                               : serve::SimCoreKind::EventHeap;
}

/** One serve replay per iteration; rounds_per_s is the figure. */
void
BM_ServeCoreReplay(benchmark::State &state)
{
    const auto core = coreOf(state);
    const auto wl = saturatingWorkload(256);
    const serve::ServeSimulator sim(arch::edgeArch(),
                                    model::t5Small(), wl,
                                    serveOptions(core));
    const auto trace = serve::generateWorkload(wl, 1);

    std::int64_t rounds = 0;
    for (auto _ : state) {
        const auto m = sim.run(trace);
        rounds += m.prefill_rounds + m.decode_rounds;
        benchmark::DoNotOptimize(m.makespan_s);
    }
    state.counters["rounds_per_s"] = benchmark::Counter(
        static_cast<double>(rounds), benchmark::Counter::kIsRate);
    state.SetLabel(serve::toString(core));
}
BENCHMARK(BM_ServeCoreReplay)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * The acceptance scenario: 8 single-chip replicas behind
 * power-of-two routing under a saturating burst.  The event core
 * must retire >= 2x the rounds per second of the legacy core here.
 */
void
BM_FleetP2c8Replicas(benchmark::State &state)
{
    const auto core = coreOf(state);
    const auto wl = saturatingWorkload(256);
    fleet::FleetOptions opts;
    opts.serve = serveOptions(core);
    opts.threads = 1;
    opts.plan_threads = 1;
    const auto fleet = fleet::FleetSimulator::uniform(
        8, multichip::edgeCluster(1), model::t5Small(), wl, opts);
    const auto trace = serve::generateWorkload(wl, 1);
    fleet::FleetRunOptions run;
    run.policy = fleet::PolicyKind::PowerOfTwo;
    run.seed = 1;

    std::int64_t rounds = 0;
    for (auto _ : state) {
        const auto m = fleet.run(trace, run);
        for (const auto &r : m.replicas)
            rounds += r.prefill_rounds + r.decode_rounds;
        benchmark::DoNotOptimize(m.makespan_s);
    }
    state.counters["rounds_per_s"] = benchmark::Counter(
        static_cast<double>(rounds), benchmark::Counter::kIsRate);
    state.SetLabel(serve::toString(core));
}
BENCHMARK(BM_FleetP2c8Replicas)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

/**
 * The fleet scenario under active gray failures: every replica
 * carries a generated chip-slowdown schedule, so the replay pays
 * the fault-boundary machinery (timeline cursors, session
 * multiplier swaps, extra heap events) while it retires rounds.
 * Keeps the legacy-vs-event speedup claim honest — a win that
 * evaporates the moment faults fire would be a fair-weather win.
 */
void
BM_FleetSlowdownFaults(benchmark::State &state)
{
    const auto core = coreOf(state);
    const auto wl = saturatingWorkload(256);
    fleet::FleetOptions opts;
    opts.serve = serveOptions(core);
    opts.threads = 1;
    opts.plan_threads = 1;
    constexpr int kReplicas = 8;
    const auto fleet = fleet::FleetSimulator::uniform(
        kReplicas, multichip::edgeCluster(1), model::t5Small(), wl,
        opts);
    const auto trace = serve::generateWorkload(wl, 1);
    fleet::FleetRunOptions run;
    run.policy = fleet::PolicyKind::PowerOfTwo;
    run.seed = 1;
    fault::FaultScheduleOptions fs;
    fs.incidents = 4;
    fs.horizon_s = 4.0;
    fs.link_degrade_prob = 0.0;
    fs.slowdown_prob = 1.0; // slowdown-only: nothing goes down
    fs.mean_slowdown_s = 1.0;
    fs.max_multiplier = 4.0;
    run.faults.resize(kReplicas);
    for (int r = 0; r < kReplicas; ++r)
        run.faults[static_cast<std::size_t>(r)] =
            fault::generateFaultSchedule(
                fs, 1, 7 + static_cast<std::uint64_t>(r));

    std::int64_t rounds = 0;
    for (auto _ : state) {
        const auto m = fleet.run(trace, run);
        for (const auto &r : m.replicas)
            rounds += r.prefill_rounds + r.decode_rounds;
        benchmark::DoNotOptimize(m.makespan_s);
    }
    state.counters["rounds_per_s"] = benchmark::Counter(
        static_cast<double>(rounds), benchmark::Counter::kIsRate);
    state.SetLabel(serve::toString(core));
}
BENCHMARK(BM_FleetSlowdownFaults)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
