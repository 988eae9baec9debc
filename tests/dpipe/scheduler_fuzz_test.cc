/**
 * @file
 * Randomized property tests for the DP scheduler: on hundreds of
 * random DAGs with random latencies, every schedule must respect
 * dependencies, never double-book an array, and its makespan must
 * sit between two analytic bounds (critical path / work bound from
 * below, fully-serial execution from above).  The allocation-free
 * scoring kernel behind bestDpSchedule must pick, to the bit, the
 * schedule a plain dpSchedule over every candidate order picks.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "common/rng.hh"
#include "dpipe/dp_scheduler.hh"
#include "dpipe/partition.hh"
#include "obs/obs.hh"
#include "schedule_bits.hh"

namespace transfusion::dpipe
{
namespace
{

/** Random DAG: edges only from lower to higher ids. */
einsum::Dag
randomDag(Rng &rng, int n, double edge_prob)
{
    einsum::Dag d(n);
    for (int i = 0; i < n; ++i) {
        for (int j = i + 1; j < n; ++j) {
            if (rng.nextDouble() < edge_prob)
                d.addEdge(i, j);
        }
    }
    return d;
}

std::vector<OpLatencyPair>
randomLatencies(Rng &rng, int n)
{
    std::vector<OpLatencyPair> lat;
    for (int i = 0; i < n; ++i)
        lat.push_back({ rng.nextDouble(0.1, 10.0),
                        rng.nextDouble(0.1, 10.0) });
    return lat;
}

/** Longest path through the DAG using each op's faster array. */
double
criticalPathLowerBound(const einsum::Dag &dag,
                       const std::vector<OpLatencyPair> &lat)
{
    std::vector<double> dist(
        static_cast<std::size_t>(dag.nodeCount()), 0.0);
    double best = 0;
    for (int v : dag.topoSort()) {
        const double mine = std::min(
            lat[static_cast<std::size_t>(v)][0],
            lat[static_cast<std::size_t>(v)][1]);
        double ready = 0;
        for (int p : dag.predecessors(v))
            ready = std::max(ready,
                             dist[static_cast<std::size_t>(p)]);
        dist[static_cast<std::size_t>(v)] = ready + mine;
        best = std::max(best, dist[static_cast<std::size_t>(v)]);
    }
    return best;
}

void
checkValid(const einsum::Dag &dag, const Schedule &s)
{
    std::map<int, const OpPlacement *> by_op;
    for (const auto &p : s.placements)
        by_op[p.op] = &p;
    ASSERT_EQ(by_op.size(),
              static_cast<std::size_t>(dag.nodeCount()));
    for (const auto &p : s.placements) {
        for (int pre : dag.predecessors(p.op))
            ASSERT_GE(p.start, by_op[pre]->end - 1e-9);
    }
    for (const auto &a : s.placements) {
        for (const auto &b : s.placements) {
            if (a.op >= b.op || a.pe != b.pe)
                continue;
            ASSERT_TRUE(a.end <= b.start + 1e-9
                        || b.end <= a.start + 1e-9);
        }
    }
}

TEST(SchedulerFuzz, HundredsOfRandomDagsStayValidAndBounded)
{
    Rng rng(0xF0F0);
    for (int trial = 0; trial < 300; ++trial) {
        const int n = 2 + static_cast<int>(rng.nextBelow(10));
        const double density = rng.nextDouble(0.0, 0.6);
        const auto dag = randomDag(rng, n, density);
        const auto lat = randomLatencies(rng, n);

        const Schedule s = bestDpSchedule(dag, lat, 16);
        checkValid(dag, s);

        // Lower bounds: critical path; per-array work can't beat
        // running everything on its faster array in parallel pairs
        // (half the total fastest work on two arrays).
        const double cp = criticalPathLowerBound(dag, lat);
        double fastest_work = 0;
        double serial_native = 0;
        for (const auto &l : lat) {
            fastest_work += std::min(l[0], l[1]);
            serial_native += std::min(l[0], l[1]);
        }
        ASSERT_GE(s.makespan, cp - 1e-9) << "trial " << trial;
        ASSERT_GE(s.makespan, fastest_work / 2.0 - 1e-9);
        // Upper bound: a list schedule never exceeds serial
        // execution of every op on its faster array... it can,
        // when forced onto the slower array by queueing; the loose
        // bound is serial execution on the slower array.
        double serial_slowest = 0;
        for (const auto &l : lat)
            serial_slowest += std::max(l[0], l[1]);
        ASSERT_LE(s.makespan, serial_slowest + 1e-9);
        (void)serial_native;
    }
}

TEST(SchedulerFuzz, BipartitionsOfRandomDagsSatisfyConstraints)
{
    Rng rng(0xBEEF);
    int total_partitions = 0;
    for (int trial = 0; trial < 100; ++trial) {
        const int n = 2 + static_cast<int>(rng.nextBelow(8));
        const auto dag = randomDag(rng, n, 0.4);
        for (const auto &p : enumerateBipartitions(dag)) {
            ASSERT_TRUE(isValidBipartition(dag, p.in_first));
            ++total_partitions;
        }
    }
    // The sweep must actually exercise the property.
    EXPECT_GT(total_partitions, 50);
}

TEST(SchedulerFuzz, MoreOrdersNeverHurt)
{
    Rng rng(0xABCD);
    for (int trial = 0; trial < 50; ++trial) {
        const int n = 3 + static_cast<int>(rng.nextBelow(6));
        const auto dag = randomDag(rng, n, 0.3);
        const auto lat = randomLatencies(rng, n);
        const double few = bestDpSchedule(dag, lat, 2).makespan;
        const double many = bestDpSchedule(dag, lat, 64).makespan;
        ASSERT_LE(many, few + 1e-12);
    }
}

/**
 * The DP over candidate orders written the direct way: a full
 * dpSchedule on the Kahn order and on every enumerated order,
 * keeping the first strict minimum.
 */
Schedule
referenceBestSchedule(const einsum::Dag &dag,
                      const std::vector<OpLatencyPair> &lat,
                      std::size_t cap)
{
    Schedule best = dpSchedule(dag, dag.topoSort(), lat);
    if (cap > 1) {
        for (const auto &order : dag.enumerateTopoOrders(cap)) {
            Schedule s = dpSchedule(dag, order, lat);
            if (s.makespan < best.makespan)
                best = std::move(s);
        }
    }
    return best;
}

TEST(SchedulerFuzz, ScoringKernelMatchesFullDpOverEveryOrder)
{
    Rng rng(0x5C0E);
    const std::size_t caps[] = { 1, 2, 16, 64 };
    int tie_trials = 0;
    for (int trial = 0; trial < 400; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const int n = 1 + static_cast<int>(rng.nextBelow(11));
        const auto dag = randomDag(rng, n, rng.nextDouble(0.0, 0.6));
        // Odd trials draw latencies from {1, 2}: many orders then
        // tie at the minimum and only the first may win.
        std::vector<OpLatencyPair> lat = randomLatencies(rng, n);
        if (trial % 2 == 1) {
            for (auto &l : lat) {
                l[0] = static_cast<double>(1 + rng.nextBelow(2));
                l[1] = static_cast<double>(1 + rng.nextBelow(2));
            }
        }
        const std::size_t cap = caps[trial % 4];

        obs::Registry reg;
        Schedule got;
        {
            obs::ScopedRegistry scope(reg);
            got = bestDpSchedule(dag, lat, cap);
        }
        expectSameSchedule(got, referenceBestSchedule(dag, lat, cap));

        // The kernel's winner, scored order by order with the full
        // DP: same index, same makespan bits.
        const OrderSet orders(dag, cap);
        DpSearchStats stats;
        const OrderScore score = orders.best(lat, stats);
        std::size_t want_index = 0;
        double want_makespan = 0;
        int at_min = 0;
        for (std::size_t i = 0; i < orders.size(); ++i) {
            const double m =
                dpSchedule(dag, orders.orderVector(i), lat).makespan;
            if (i == 0 || m < want_makespan) {
                want_index = i;
                want_makespan = m;
            }
        }
        for (std::size_t i = 0; i < orders.size(); ++i)
            at_min += dpSchedule(dag, orders.orderVector(i), lat)
                              .makespan
                          == want_makespan
                ? 1
                : 0;
        EXPECT_EQ(score.index, want_index);
        EXPECT_SAME_BITS(score.makespan, want_makespan);
        // The set schedules its orders from its own copy of the DAG.
        expectSameSchedule(orders.schedule(score.index, lat), got);
        tie_trials += at_min > 1 ? 1 : 0;

        // The counters exist only where TF_COUNT is compiled in.
        if (!TRANSFUSION_OBS_ENABLED)
            continue;
        const auto counters = reg.snapshot().counters;
        const auto tried = static_cast<std::int64_t>(orders.size());
        EXPECT_EQ(counters.at("dpipe/dp/orders_tried"), tried);
        EXPECT_EQ(counters.at("dpipe/dp/states_explored"), tried * n);
        EXPECT_LE(counters.at("dpipe/dp/orders_pruned"), tried - 1);
    }
    // The sweep must actually exercise the tie rule.
    EXPECT_GT(tie_trials, 100);
}

} // namespace
} // namespace transfusion::dpipe
