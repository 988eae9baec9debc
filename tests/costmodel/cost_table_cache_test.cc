/**
 * @file
 * Unit tests for the KeyBuilder fingerprints and the
 * CostTableCache: keys separate every labelled field, hits return
 * the first build's value verbatim with its observability replayed,
 * type confusion is fatal, and the RAII disable scope restores the
 * previous state even when nested.
 *
 * The tests run against the process-wide instance() (the one the
 * serve/multichip call sites share) under test-private keys, so
 * they neither disturb nor depend on entries other tests created.
 */

#include <string>

#include <gtest/gtest.h>

#include "costmodel/cache_key.hh"
#include "costmodel/cost_table_cache.hh"
#include "obs/obs.hh"

namespace transfusion::costmodel
{
namespace
{

TEST(CacheKey, LabelledFieldsNeverCollide)
{
    // Adjacent fields must not be able to swap content across the
    // boundary: strings are length-prefixed and every field is
    // labelled, so "ab" + "c" and "a" + "bc" fingerprint apart
    // even under identical labels.
    KeyBuilder a;
    a.add("x", "ab").add("y", "c");
    KeyBuilder b;
    b.add("x", "a").add("y", "bc");
    EXPECT_NE(a.str(), b.str());

    // Distinct types of the same numeric value stay distinct.
    KeyBuilder i64;
    i64.add("v", std::int64_t{ 1 });
    KeyBuilder u64;
    u64.add("v", std::uint64_t{ 1 });
    KeyBuilder dbl;
    dbl.add("v", 1.0);
    EXPECT_NE(i64.str(), u64.str());
    EXPECT_NE(i64.str(), dbl.str());
    EXPECT_NE(u64.str(), dbl.str());
}

TEST(CacheKey, DoublesFingerprintExactBits)
{
    // Hex-float rendering is exact: values that round-trip to the
    // same decimal at low precision still key apart.
    KeyBuilder a;
    a.add("v", 0.1);
    KeyBuilder b;
    b.add("v", 0.1 + 1e-17); // same printf("%.15g"), different bits
    KeyBuilder c;
    c.add("v", 0.1);
    EXPECT_EQ(a.str(), c.str());
    if (0.1 != 0.1 + 1e-17) {
        EXPECT_NE(a.str(), b.str());
    }
}

TEST(CostTableCache, HitReturnsTheFirstBuildAndCountsIt)
{
    auto &cache = CostTableCache::instance();
    const std::string key = "test/hit-returns-first-build";
    const auto before = cache.stats();

    int builds = 0;
    const auto build = [&]() {
        builds += 1;
        return 41 + builds;
    };
    const auto first =
        cache.getOrBuild<int>(key, build);
    const auto second =
        cache.getOrBuild<int>(key, build);
    EXPECT_EQ(builds, 1) << "second lookup must not rebuild";
    EXPECT_EQ(*first, 42);
    // Same object, not an equal copy: the cache shares the value.
    EXPECT_EQ(first.get(), second.get());

    const auto after = cache.stats();
    EXPECT_EQ(after.misses, before.misses + 1);
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.entries, before.entries + 1);
}

TEST(CostTableCache, HitReplaysTheBuildObservability)
{
    auto &cache = CostTableCache::instance();
    const std::string key = "test/hit-replays-observability";

    const auto build = [&]() {
        obs::currentRegistry().counterAdd("test/built", 3);
        obs::currentRegistry().gaugeMax("test/peak", 7.0);
        return 1;
    };
    obs::Registry miss_reg;
    {
        obs::ScopedRegistry scope(miss_reg);
        (void)cache.getOrBuild<int>(key, build);
    }
    obs::Registry hit_reg;
    {
        obs::ScopedRegistry scope(hit_reg);
        (void)cache.getOrBuild<int>(key, build);
    }
    // The hit leaves the registry exactly as the miss did — the
    // within-process reproducibility the golden fleet test pins.
    const auto miss_snap = miss_reg.snapshot();
    const auto hit_snap = hit_reg.snapshot();
    EXPECT_EQ(miss_snap.counters.at("test/built"), 3);
    EXPECT_EQ(hit_snap.counters.at("test/built"), 3);
    EXPECT_DOUBLE_EQ(hit_snap.peaks.at("test/peak"), 7.0);
    EXPECT_EQ(miss_snap.counters.size(), hit_snap.counters.size());
}

TEST(CostTableCache, HitReplaysTimerCountsNotBuildTime)
{
    auto &cache = CostTableCache::instance();
    const std::string key = "test/hit-replays-timer-counts";

    const auto build = [&]() {
        obs::currentRegistry().timerRecord("t", 0.5);
        return 1;
    };
    obs::Registry miss_reg;
    {
        obs::ScopedRegistry scope(miss_reg);
        (void)cache.getOrBuild<int>(key, build);
    }
    obs::Registry hit_reg;
    {
        obs::ScopedRegistry scope(hit_reg);
        (void)cache.getOrBuild<int>(key, build);
    }
    // The miss records the build's real duration; the hit keeps
    // the sample count (what RunReports export) but took no time.
    EXPECT_EQ(miss_reg.snapshot().timers.at("t").sum(), 0.5);
    const Histogram hit = hit_reg.snapshot().timers.at("t");
    EXPECT_EQ(hit.count(), 1u);
    EXPECT_EQ(hit.sum(), 0.0);
}

TEST(CostTableCache, TypeConfusionIsFatalNotReinterpreted)
{
    auto &cache = CostTableCache::instance();
    const std::string key = "test/type-confusion";
    (void)cache.getOrBuild<int>(key, [] { return 5; });
    EXPECT_THROW((void)cache.getOrBuild<double>(
                     key, [] { return 5.0; }),
                 PanicError);
}

TEST(CostTableCache, DisabledScopeBypassesAndRestores)
{
    auto &cache = CostTableCache::instance();
    const std::string key = "test/disabled-scope";
    ASSERT_TRUE(cache.enabled());

    int builds = 0;
    const auto build = [&]() {
        builds += 1;
        return builds;
    };
    {
        CostTableCacheDisabled off;
        EXPECT_FALSE(cache.enabled());
        // Nested scopes restore to the *previous* state, not to a
        // hard-coded default.
        {
            CostTableCacheDisabled inner;
            EXPECT_FALSE(cache.enabled());
        }
        EXPECT_FALSE(cache.enabled());
        // Disabled lookups build every time and never populate.
        EXPECT_EQ(*cache.getOrBuild<int>(key, build), 1);
        EXPECT_EQ(*cache.getOrBuild<int>(key, build), 2);
    }
    EXPECT_TRUE(cache.enabled());
    // Re-enabled, the key was never stored: the next lookup is a
    // miss that finally populates it.
    EXPECT_EQ(*cache.getOrBuild<int>(key, build), 3);
    EXPECT_EQ(*cache.getOrBuild<int>(key, build), 3);
    EXPECT_EQ(builds, 3);
}

} // namespace
} // namespace transfusion::costmodel
