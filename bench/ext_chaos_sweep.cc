/**
 * @file
 * Extension experiment: the chaos-invariant sweep as a standalone
 * driver.  Fans `--schedules` seeded fault schedules (chip losses,
 * link degrades, correlated gray-failure slowdowns) across routing
 * policies and health/brownout configurations through the harness
 * tests/chaos runs (chaos_harness.hh), checking its five
 * invariants on every run: conservation, agreement with the
 * committed Legacy-core digest (for seeds that have one: 1-70),
 * threads-1v4 bit-identity, termination, and exact post-recovery
 * spec restore.
 *
 * The ctest harness pins a fixed seed count for CI; this binary is
 * the dial — crank `--schedules` into the thousands for a soak run,
 * or drop it for a smoke pass (the UBSan tier runs a reduced
 * sweep).  Exit status is the verdict: 0 only if every schedule
 * held every invariant, so it can gate scripts directly.
 *
 * Flags: --schedules N (schedules swept, default 32), --seed
 * offsets the whole sweep, --threads sizes the worker pool that
 * fans seeds out (per-seed replays stay bit-identical regardless).
 */

#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "chaos_harness.hh"
#include "common/thread_pool.hh"
#include "metrics_diff.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    using bench::chaos::kReplicas;
    using bench::chaos::SeedResult;
    const auto args = bench::parseBenchArgs(argc, argv);
    bench::printBanner(
        "Extension: chaos-invariant sweep",
        "Seeded fault schedules x policies; every run must "
        "conserve requests, match its committed core digest, agree "
        "bitwise across thread counts, terminate, and recover to "
        "the exact initial spec");

    // A broken digest file would silently check nothing.
    const bench::DigestFile &oracle = bench::legacyCoreDigests();
    if (!oracle.error().empty()) {
        std::cerr << oracle.error() << "\n";
        return 1;
    }

    // Warm the process-wide cost-table cache once so the parallel
    // seed fan-out below doesn't race to calibrate.
    bench::chaos::warmCostTables();

    std::vector<std::uint64_t> seeds;
    for (int s = 0; s < args.schedules; ++s)
        seeds.push_back(args.seed
                        + static_cast<std::uint64_t>(s));
    ThreadPool pool(args.threads);
    const std::vector<SeedResult> results =
        parallelMap(pool, seeds, [](const std::uint64_t &seed) {
            return bench::chaos::runSeed(seed);
        });

    Table t({ "seed", "policy", "faults", "slowdn", "br.open",
              "sheds", "reroute", "done/offer", "makespan_s",
              "ok" });
    std::int64_t failures = 0;
    std::size_t checked = 0;
    for (const SeedResult &r : results) {
        if (!r.failure.empty())
            failures += 1;
        if (r.oracle_checked)
            checked += 1;
        t.addRow({ std::to_string(r.seed),
                   fleet::toString(r.policy),
                   std::to_string(r.fault_events),
                   std::to_string(r.metrics.slowdown_transitions),
                   std::to_string(r.metrics.breaker_opens),
                   std::to_string(r.metrics.brownout_sheds),
                   std::to_string(r.metrics.failover_reroutes),
                   std::to_string(r.metrics.completed) + "/"
                       + std::to_string(r.metrics.offered),
                   Table::cell(r.metrics.makespan_s),
                   r.failure.empty() ? "yes" : "NO" });
    }
    bench::printTable(t, args, std::cout);

    std::cout << "\nSchedules swept: " << results.size() * kReplicas
              << " (" << results.size() << " seeds x " << kReplicas
              << " replicas), invariant failures: " << failures
              << "\ncore-oracle digests checked: " << checked
              << " of " << results.size() << " seeds\n";
    for (const SeedResult &r : results)
        if (!r.failure.empty())
            std::cerr << "seed " << r.seed << ": " << r.failure
                      << "\n";
    return failures == 0 ? 0 : 1;
}
