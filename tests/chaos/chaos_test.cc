/**
 * @file
 * Seeded chaos-invariant sweep: kSeeds seeds of the shared harness
 * (bench/chaos_harness.hh), each replaying kReplicas randomized
 * fault schedules across routing policies and health/brownout
 * configurations, with the harness's five invariants —
 * conservation, the committed Legacy-core digest, thread
 * independence, termination and exact recovery — checked on every
 * run.  Every seed here has a committed digest, so a seed the
 * oracle did not check fails.  The ctest TIMEOUT property on this
 * binary is the backstop for a hung loop (invariant 4).
 *
 * Seeds fan out over the ThreadPool; gtest assertions are not
 * thread-safe, so workers return failure strings and the main
 * thread asserts the collection is empty.  A saturating burst,
 * whose decode rounds often retire several requests at once, is
 * checked against its own committed digest
 * (tests/integration/data/saturating_chaos_digests.txt).  Own
 * binary under the `chaos` label: heavier than the unit tier,
 * cheap enough for CI.
 */

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos_harness.hh"
#include "common/thread_pool.hh"
#include "metrics_diff.hh"

namespace transfusion::bench::chaos
{
namespace
{

constexpr int kSeeds = 70; ///< x kReplicas schedules per seed

TEST(Chaos, InvariantsHoldAcrossSeededFaultSchedules)
{
    const DigestFile &oracle = legacyCoreDigests();
    ASSERT_EQ(oracle.error(), "");
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
    for (const SeedResult &r : results) {
        if (!r.failure.empty())
            failures << "seed " << r.seed << ": " << r.failure
                     << "\n";
        if (!r.oracle_checked)
            failures << "seed " << r.seed << ": " << oracle.path()
                     << " has no digest for chaos/seed" << r.seed
                     << "\n";
    }
    EXPECT_EQ(failures.str(), "");
    // The sweep really covered the advertised schedule count.
    EXPECT_GE(kSeeds * kReplicas, 200);
}

// The seeded cells above rarely retire two requests in one decode
// round; this burst does, often, so the finish heap's tie order
// reaches the digest.
TEST(Chaos, SaturatingCellMatchesCapturedDigest)
{
    const DigestFile &oracle = saturatingChaosDigests();
    ASSERT_EQ(oracle.error(), "");
    ASSERT_TRUE(oracle.has(kSaturatingCell));
    for (const int threads : { 1, 4 }) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(oracle.check(saturatingCellDigest(threads)), "");
    }
}

} // namespace
} // namespace transfusion::bench::chaos
