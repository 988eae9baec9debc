/**
 * @file
 * Recorded fan-out: the one way parallel code maps work over the
 * ThreadPool while keeping observability deterministic.  Each task
 * writes into its own Registry; the task registries merge into the
 * caller's current registry in input order after every task is
 * done, so both the results and the merged registry are
 * bit-identical for any thread count.  schedule::Sweep::run,
 * multichip::planShards, serve::runScenarios and
 * plan::CapacityPlanner::plan all fan out through here.
 */

#ifndef TRANSFUSION_OBS_FAN_OUT_HH
#define TRANSFUSION_OBS_FAN_OUT_HH

#include <algorithm>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.hh"
#include "obs/registry.hh"

namespace transfusion::obs
{

/**
 * Map `fn` over `items` on min(threads, items) workers
 * (threads <= 0 = all hardware), each task under its own
 * ScopedRegistry.  Task i's registry merges under
 * "<prefix><i>." when `prefix` is non-empty, verbatim otherwise.
 * The result type must be default-constructible.
 */
template <typename T, typename Fn>
auto
fanOut(int threads, const std::vector<T> &items, Fn fn,
       const std::string &prefix = {})
    -> std::vector<std::invoke_result_t<Fn &, const T &>>
{
    using R = std::invoke_result_t<Fn &, const T &>;
    if (items.empty())
        return {};
    // No point parking idle workers on a short input.
    const int workers = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(threads > 0
                                     ? threads
                                     : ThreadPool::hardwareThreads()),
        items.size()));
    ThreadPool pool(workers);
    auto tagged = parallelMap(pool, items, [&fn](const T &item) {
        Registry local;
        R result;
        {
            ScopedRegistry scope(local);
            result = fn(item);
        }
        return std::make_pair(std::move(result), std::move(local));
    });
    Registry &sink = currentRegistry();
    std::vector<R> out;
    out.reserve(tagged.size());
    for (std::size_t i = 0; i < tagged.size(); ++i) {
        if (prefix.empty())
            sink.merge(tagged[i].second);
        else
            sink.mergePrefixed(tagged[i].second.snapshot(),
                               prefix + std::to_string(i) + ".");
        out.push_back(std::move(tagged[i].first));
    }
    return out;
}

} // namespace transfusion::obs

#endif // TRANSFUSION_OBS_FAN_OUT_HH
