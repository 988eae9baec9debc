/**
 * @file
 * Process-wide memoization of expensive, deterministic cost-table
 * construction (calibrated ServeCostModel grids, shard-plan
 * sweeps).
 *
 * Serving-layer construction recomputes identical Evaluator tables
 * over and over: every planner candidate of one (cluster, chips,
 * tp, pp) calibrates the same grids, every fault re-carve of the same
 * surviving cluster replans the same shard sweep, and benches
 * construct the same simulator per load point.  All of those
 * builders are *pure* — bit-identical output for equal inputs — so
 * a keyed cache returns the first build's result verbatim.
 *
 * Observability contract: a cached build must be indistinguishable
 * from a fresh one, or RunReports stop being reproducible within a
 * process (the golden `FleetReportIsReproducibleWithinProcess`
 * pins exactly that).  getOrBuild therefore runs the builder under
 * a task-local obs::Registry, stores the resulting snapshot next to
 * the value, and *replays* that snapshot into the caller's current
 * registry on every hit — counters, gauges and peaks land exactly
 * as the original build recorded them.  Timers replay their sample
 * *counts* as zero-length samples: a hit takes no build time, so
 * replaying the first build's wall-clock durations would bill it
 * twice.  RunReports export only timer counts, which match.
 *
 * Keys come from costmodel::KeyBuilder and must fingerprint every
 * input that can change the value (see cache_key.hh).  Values are
 * type-erased but type-checked: retrieving a key under a different
 * type is fatal, never a reinterpretation.
 */

#ifndef TRANSFUSION_COSTMODEL_COST_TABLE_CACHE_HH
#define TRANSFUSION_COSTMODEL_COST_TABLE_CACHE_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <typeinfo>

#include "common/logging.hh"
#include "obs/registry.hh"

namespace transfusion::costmodel
{

/** Keyed store of memoized cost tables (see file comment). */
class CostTableCache
{
  public:
    /** Hit/miss accounting (for tests and bench banners). */
    struct Stats
    {
        std::int64_t hits = 0;
        std::int64_t misses = 0;
        std::int64_t entries = 0;
    };

    /** The process-wide cache every call site shares. */
    static CostTableCache &instance();

    /**
     * Return the value cached under `key`, building it with
     * `build` on the first request.  The builder runs under a
     * task-local registry whose snapshot is merged into the
     * caller's current registry on the miss *and* replayed on
     * every later hit, so cached and uncached construction leave
     * the registry bit-identically.  Holds the cache lock across
     * the build: builders must not call back into the cache.
     */
    template <class T>
    std::shared_ptr<const T>
    getOrBuild(const std::string &key,
               const std::function<T()> &build)
    {
        if (!enabled()) {
            // Bypass entirely: build straight into the caller's
            // registry, exactly as uncached code did.
            return std::make_shared<const T>(build());
        }
        std::lock_guard<std::mutex> lock(mu_);
        auto it = map_.find(key);
        if (it != map_.end()) {
            tf_assert(*it->second.type == typeid(T),
                      "cost-table cache key built as ",
                      it->second.type->name(),
                      " requested as ", typeid(T).name(),
                      " (key: ", key, ")");
            stats_.hits += 1;
            obs::currentRegistry().merge(it->second.recorded);
            return std::static_pointer_cast<const T>(
                it->second.value);
        }
        stats_.misses += 1;
        obs::Registry local;
        std::shared_ptr<const T> value;
        {
            obs::ScopedRegistry scope(local);
            value = std::make_shared<const T>(build());
        }
        Entry entry;
        entry.value = value;
        entry.type = &typeid(T);
        entry.recorded = local.snapshot();
        obs::currentRegistry().merge(entry.recorded);
        for (auto &[name, timer] : entry.recorded.timers) {
            Histogram zeros;
            for (std::size_t i = 0; i < timer.count(); ++i)
                zeros.add(0.0);
            timer = std::move(zeros);
        }
        map_.emplace(key, std::move(entry));
        stats_.entries = static_cast<std::int64_t>(map_.size());
        return value;
    }

    /** Drop every entry (tests; never needed in production). */
    void clear();

    Stats stats() const;

    /**
     * Toggle memoization (default on).  The differential replay
     * harness disables it to prove cached == uncached; returns the
     * previous state.
     */
    bool setEnabled(bool enabled);
    bool enabled() const;

  private:
    struct Entry
    {
        std::shared_ptr<const void> value;
        const std::type_info *type = nullptr;
        /** Registry deltas a hit replays: the original build's,
         *  with each timer's samples zeroed. */
        obs::RegistrySnapshot recorded;
    };

    mutable std::mutex mu_;
    std::map<std::string, Entry> map_;
    Stats stats_;
    bool enabled_ = true;
};

/** RAII disable scope (restores the previous state). */
class CostTableCacheDisabled
{
  public:
    CostTableCacheDisabled()
        : previous_(CostTableCache::instance().setEnabled(false))
    {}
    ~CostTableCacheDisabled()
    {
        CostTableCache::instance().setEnabled(previous_);
    }
    CostTableCacheDisabled(const CostTableCacheDisabled &) = delete;
    CostTableCacheDisabled &
    operator=(const CostTableCacheDisabled &) = delete;

  private:
    bool previous_;
};

} // namespace transfusion::costmodel

#endif // TRANSFUSION_COSTMODEL_COST_TABLE_CACHE_HH
