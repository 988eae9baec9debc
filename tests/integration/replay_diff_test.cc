/**
 * @file
 * Differential replay harness.  The Legacy linear-scan simulation
 * cores were deleted after their outputs were captured as committed
 * digests (tests/integration/data/legacy_core_digests.txt, written
 * while both cores existed and agreed bitwise on every cell).  Every
 * cell of a seed x routing-policy x fault-schedule grid, and every
 * serve-only seed, replays through the event core and must match
 * its captured digest: the FleetMetrics field by field and the
 * latency histograms sample-set by sample-set (through the
 * canonical serialization of bench/metrics_diff.hh), and the
 * RunReport string (in builds that record reports).
 *
 * The same harness pins the CostTableCache's transparency: a fleet
 * calibrated with memoization disabled must produce the same
 * report as one served from the cache, including the replayed
 * construction-time observability.
 *
 * Any divergence a core change introduces fails here first, with
 * the exact grid cell and digest-file line named.
 */

#include <cstdio>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "costmodel/cost_table_cache.hh"
#include "fleet/fleet_sim.hh"
#include "metrics_diff.hh"
#include "obs/obs.hh"
#include "obs/report.hh"
#include "serve/workload.hh"

namespace transfusion
{
namespace
{

/** Saturating burst: arrivals far outpace one replica, so queues,
 *  sheds, and multi-round batches all occur. */
serve::WorkloadOptions
diffWorkload()
{
    serve::WorkloadOptions wl;
    wl.arrival_per_s = 400.0;
    wl.requests = 32;
    wl.prompt = { 128, 256 };
    wl.output = { 16, 32 };
    return wl;
}

fleet::FleetOptions
fleetOptions()
{
    fleet::FleetOptions o;
    o.serve.strategy = schedule::StrategyKind::TransFusion;
    o.serve.max_batch = 4;
    o.serve.cost.cache_samples = 3;
    o.serve.cost.prefill_samples = 3;
    o.serve.cost.evaluator.mcts.iterations = 32;
    o.threads = 1;
    o.plan_threads = 1;
    return o;
}

/** One named per-replica fault assignment for the grid. */
struct FaultCase
{
    std::string name;
    std::vector<fault::FaultSchedule> faults;
};

std::vector<FaultCase>
faultCases()
{
    // Replica 1 loses its only chip mid-burst and recovers: the
    // down span drains it and failover re-offers its work.
    fault::FaultSchedule loss;
    loss.events.push_back({ 0.05, fault::FaultKind::ChipLoss, 0 });
    loss.events.push_back(
        { 0.40, fault::FaultKind::ChipRecovery, 0 });

    // A degraded-then-restored link opens no down span, so this
    // case pins the event core's *non*-boundaries too.
    fault::FaultSchedule degrade;
    fault::FaultEvent slow;
    slow.time_s = 0.05;
    slow.kind = fault::FaultKind::LinkDegrade;
    slow.factor = 0.5;
    fault::FaultEvent restore = slow;
    restore.time_s = 0.50;
    restore.factor = 1.0;
    degrade.events.push_back(slow);
    degrade.events.push_back(restore);

    std::vector<FaultCase> cases;
    cases.push_back({ "empty", {} });
    cases.push_back({ "chip-loss", { {}, loss } });
    cases.push_back({ "link-degrade", { degrade } });
    return cases;
}

/** Replay under a scoped registry; return (metrics, report). */
std::pair<fleet::FleetMetrics, std::string>
replay(const fleet::FleetSimulator &fleet,
       const std::vector<serve::Request> &trace,
       const fleet::FleetRunOptions &run)
{
    obs::Registry local;
    fleet::FleetMetrics m;
    {
        obs::ScopedRegistry scope(local);
        m = fleet.run(trace, run);
    }
    return { std::move(m),
             obs::RunReport::capture(local).toString() };
}

/**
 * The full grid: 3 seeds x all 5 policies x {empty, chip-loss,
 * link-degrade}, each cell's event-core replay against the Legacy
 * core's captured digest.  Only the replay is per-cell; the fleet
 * is calibrated once.
 */
TEST(ReplayDiff, FleetGridLegacyVsEventHeapBitwise)
{
    const bench::DigestFile &legacy = bench::legacyCoreDigests();
    ASSERT_EQ(legacy.error(), "");
    const auto wl = diffWorkload();
    const auto event = fleet::FleetSimulator::uniform(
        3, multichip::edgeCluster(1), model::t5Small(), wl,
        fleetOptions());

    const auto cases = faultCases();
    for (const std::uint64_t seed : { 1u, 2u, 3u }) {
        const auto trace = serve::generateWorkload(wl, seed);
        for (const fleet::PolicyKind policy :
             fleet::allPolicies()) {
            for (const FaultCase &fc : cases) {
                const std::string cell = "fleet/seed"
                    + std::to_string(seed) + "/"
                    + fleet::toString(policy) + "/" + fc.name;
                fleet::FleetRunOptions run;
                run.policy = policy;
                run.seed = seed;
                run.faults = fc.faults;
                const auto [m, report] = replay(event, trace, run);
                EXPECT_EQ(legacy.check(
                              bench::digestOf(cell, m, report)),
                          "");
            }
        }
    }
}

/** The serve layer alone, below any router: the event-heap session
 *  loop replays each trace to the Legacy core's captured digest. */
TEST(ReplayDiff, ServeLegacyVsEventHeapBitwise)
{
    const bench::DigestFile &legacy = bench::legacyCoreDigests();
    ASSERT_EQ(legacy.error(), "");
    const auto wl = diffWorkload();
    serve::ServeOptions opts;
    opts.max_batch = 4;
    opts.cost.cache_samples = 3;
    opts.cost.prefill_samples = 3;
    opts.cost.evaluator.mcts.iterations = 32;
    const serve::ServeSimulator event(arch::edgeArch(),
                                      model::t5Small(), wl, opts);
    for (const std::uint64_t seed : { 1u, 7u, 23u }) {
        const auto trace = serve::generateWorkload(wl, seed);
        obs::Registry local;
        serve::ServeMetrics m;
        {
            obs::ScopedRegistry scope(local);
            m = event.run(trace);
        }
        EXPECT_EQ(legacy.check(bench::digestOf(
                      "serve/seed" + std::to_string(seed), m,
                      obs::RunReport::capture(local).toString())),
                  "");
    }
}

/**
 * The oracle can never pass vacuously: a missing file, a malformed
 * or duplicate line, or a cell absent from the file fails every
 * check, naming the file (and the line).
 */
TEST(ReplayDiff, DigestFileFailsLoudOnMissingMalformedOrUnknown)
{
    const bench::DigestFile &legacy = bench::legacyCoreDigests();
    ASSERT_EQ(legacy.error(), "");
    bench::ReplayDigest d;
    d.cell = "serve/seed999";
    EXPECT_NE(legacy.check(d).find("no digest for cell serve/seed999"),
              std::string::npos);

    const std::string dir = ::testing::TempDir();
    std::vector<std::string> written;
    const auto loadText = [&](const std::string &name,
                              const std::string &text) {
        written.push_back(dir + name);
        std::ofstream(written.back()) << text;
        return bench::DigestFile::load(written.back());
    };
    d.cell = "a";
    const std::string good = d.toLine() + "\n";
    EXPECT_EQ(loadText("digests_good.txt", "# header\n\n" + good)
                  .check(d),
              "");
    const auto missing =
        bench::DigestFile::load(dir + "digests_absent.txt");
    EXPECT_NE(missing.check(d).find("digests_absent.txt"),
              std::string::npos);
    for (const auto &[name, text, what] :
         std::vector<std::tuple<std::string, std::string,
                                std::string>>{
             { "digests_short.txt", good + "b  1/1/0  0x0p+0\n",
               "digests_short.txt:2: malformed" },
             { "digests_hex.txt",
               "a  1/1/0  0x0p+0  00zz000000000000  "
               "0000000000000000\n",
               "digests_hex.txt:1: malformed" },
             { "digests_dup.txt", good + good,
               "digests_dup.txt:2: duplicate cell a" },
             { "digests_empty.txt", "# only a header\n",
               "digests_empty.txt: no digest lines" } }) {
        SCOPED_TRACE(name);
        const auto f = loadText(name, text);
        EXPECT_NE(f.error().find(what), std::string::npos)
            << f.error();
        EXPECT_EQ(f.check(d), f.error());
    }
    for (const std::string &path : written)
        std::remove(path.c_str());
}

/**
 * Cache transparency: calibrating with the CostTableCache disabled
 * (every Evaluator table recomputed) and calibrating through the
 * cache produce bitwise-identical construction reports and replay
 * metrics.  The disabled run goes first so this test cannot be
 * satisfied by two hits on one stale entry.
 */
TEST(ReplayDiff, CostTableCacheIsObservablyTransparent)
{
    const auto cluster = multichip::edgeCluster(1);
    const auto cfg = model::t5Small();
    const auto wl = diffWorkload();
    const auto opts = fleetOptions();
    const auto trace = serve::generateWorkload(wl, 5);
    fleet::FleetRunOptions run;
    run.policy = fleet::PolicyKind::PowerOfTwo;
    run.seed = 5;

    const auto build = [&]() {
        obs::Registry local;
        fleet::FleetMetrics m;
        std::string construction;
        {
            obs::ScopedRegistry scope(local);
            const auto fleet = fleet::FleetSimulator::uniform(
                2, cluster, cfg, wl, opts);
            construction =
                obs::RunReport::capture(local).toString();
            m = fleet.run(trace, run);
        }
        return std::make_pair(
            construction + "\n---\n"
                + obs::RunReport::capture(local).toString(),
            std::move(m));
    };

    std::string uncached_report;
    fleet::FleetMetrics uncached_metrics;
    {
        costmodel::CostTableCacheDisabled off;
        std::tie(uncached_report, uncached_metrics) = build();
    }
    const auto [cached_report, cached_metrics] = build();
    EXPECT_EQ(uncached_report, cached_report)
        << obs::RunReport::diff(uncached_report, cached_report);
    EXPECT_EQ(
        bench::diffFleetMetrics(uncached_metrics, cached_metrics),
        "");
}

} // namespace
} // namespace transfusion
