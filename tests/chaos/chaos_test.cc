/**
 * @file
 * Seeded chaos-invariant sweep: kSeeds seeds of the shared harness
 * (bench/chaos_harness.hh), each replaying kReplicas randomized
 * fault schedules across routing policies, health/brownout
 * configurations and both sim cores, with the harness's five
 * invariants — conservation, core agreement, thread independence,
 * termination and exact recovery — checked on every run.  The
 * ctest TIMEOUT property on this binary is the backstop for a hung
 * loop (invariant 4).
 *
 * Seeds fan out over the ThreadPool; gtest assertions are not
 * thread-safe, so workers return failure strings and the main
 * thread asserts the collection is empty.  Own binary under the
 * `chaos` label: heavier than the unit tier, cheap enough for CI.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos_harness.hh"
#include "common/thread_pool.hh"

namespace transfusion::bench::chaos
{
namespace
{

constexpr int kSeeds = 70; ///< x kReplicas schedules per seed

TEST(Chaos, InvariantsHoldAcrossSeededFaultSchedules)
{
    // Warm the process-wide cost-table cache once so the parallel
    // constructions below don't race to calibrate.
    warmCostTables();

    std::vector<std::uint64_t> seeds;
    for (int s = 1; s <= kSeeds; ++s)
        seeds.push_back(static_cast<std::uint64_t>(s));
    ThreadPool pool(0);
    const std::vector<SeedResult> results =
        parallelMap(pool, seeds, [](const std::uint64_t &seed) {
            return runSeed(seed);
        });
    std::ostringstream failures;
    for (const SeedResult &r : results)
        if (!r.failure.empty())
            failures << "seed " << r.seed << ": " << r.failure
                     << "\n";
    EXPECT_EQ(failures.str(), "");
    // The sweep really covered the advertised schedule count.
    EXPECT_GE(kSeeds * kReplicas, 200);
}

} // namespace
} // namespace transfusion::bench::chaos
