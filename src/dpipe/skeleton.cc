/**
 * @file
 * Construction and process-wide memo of DPipe plan skeletons.
 */

#include "skeleton.hh"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace transfusion::dpipe
{

namespace
{

/** Induced subgraph over `members`; `to_orig` maps new->old ids. */
einsum::Dag
inducedSubdag(const einsum::Dag &dag, const std::vector<bool> &members,
              std::vector<int> &to_orig)
{
    to_orig.clear();
    std::vector<int> to_new(static_cast<std::size_t>(dag.nodeCount()),
                            -1);
    for (int v = 0; v < dag.nodeCount(); ++v) {
        if (members[static_cast<std::size_t>(v)]) {
            to_new[static_cast<std::size_t>(v)] =
                static_cast<int>(to_orig.size());
            to_orig.push_back(v);
        }
    }
    einsum::Dag sub(static_cast<int>(to_orig.size()));
    for (int v = 0; v < dag.nodeCount(); ++v) {
        if (!members[static_cast<std::size_t>(v)])
            continue;
        for (int w : dag.successors(v)) {
            if (members[static_cast<std::size_t>(w)]) {
                sub.addEdge(to_new[static_cast<std::size_t>(v)],
                            to_new[static_cast<std::size_t>(w)]);
            }
        }
    }
    return sub;
}

/**
 * Fig. 7(d): the steady-state epoch DAG.  A-subgraph ops (next
 * epoch) and B-subgraph ops (current epoch) keep only their
 * intra-subgraph edges -- cross edges refer to the *previous* slot's
 * results -- and a virtual ROOT (node n) feeds every resulting
 * source.
 */
einsum::Dag
steadyStateDag(const einsum::Dag &dag,
               const std::vector<bool> &in_first)
{
    const int n = dag.nodeCount();
    einsum::Dag combined(n + 1);
    for (int v = 0; v < n; ++v) {
        for (int w : dag.successors(v)) {
            if (in_first[static_cast<std::size_t>(v)]
                    == in_first[static_cast<std::size_t>(w)]) {
                combined.addEdge(v, w);
            }
        }
    }
    for (int v = 0; v < n; ++v) {
        if (combined.predecessors(v).empty())
            combined.addEdge(n, v);
    }
    return combined;
}

/**
 * Memo key: the node count, each node's successor count and
 * successors in stored order, then the cap, as raw 32-bit words.
 * Built on every schedulePipeline call, so it is kept to one
 * allocation.
 */
std::string
skeletonKey(const einsum::Dag &dag, std::size_t max_orders)
{
    std::string key;
    const auto put = [&key](std::uint32_t word) {
        key.append(reinterpret_cast<const char *>(&word), sizeof word);
    };
    key.reserve(sizeof(std::uint32_t)
                * (3 + 2 * static_cast<std::size_t>(dag.nodeCount())));
    put(static_cast<std::uint32_t>(dag.nodeCount()));
    for (int v = 0; v < dag.nodeCount(); ++v) {
        const auto &succ = dag.successors(v);
        put(static_cast<std::uint32_t>(succ.size()));
        for (int w : succ)
            put(static_cast<std::uint32_t>(w));
    }
    put(static_cast<std::uint32_t>(max_orders));
    put(static_cast<std::uint32_t>(max_orders >> 32));
    return key;
}

struct SkeletonMemo
{
    std::mutex mutex;
    std::map<std::string, std::unique_ptr<const PipelineSkeleton>>
        entries;
};

SkeletonMemo &
memo()
{
    static SkeletonMemo m;
    return m;
}

} // namespace

PipelineSkeleton
buildPipelineSkeleton(const einsum::Dag &dag, std::size_t max_orders)
{
    PipelineSkeleton skel;
    skel.epoch = OrderSet(dag, max_orders);
    for (auto &part : enumerateBipartitions(dag)) {
        BipartitionSkeleton b;
        std::vector<bool> in_second(part.in_first.size());
        for (std::size_t i = 0; i < part.in_first.size(); ++i)
            in_second[i] = !part.in_first[i];
        b.steady = OrderSet(steadyStateDag(dag, part.in_first),
                            max_orders);
        b.fill = OrderSet(inducedSubdag(dag, part.in_first, b.a_ids),
                          max_orders);
        b.drain = OrderSet(inducedSubdag(dag, in_second, b.b_ids),
                           max_orders);
        b.partition = std::move(part);
        skel.bipartitions.push_back(std::move(b));
    }
    return skel;
}

const PipelineSkeleton &
pipelineSkeleton(const einsum::Dag &dag, std::size_t max_orders)
{
    const std::string key = skeletonKey(dag, max_orders);
    SkeletonMemo &m = memo();
    const std::lock_guard<std::mutex> lock(m.mutex);
    auto it = m.entries.find(key);
    if (it == m.entries.end()) {
        // Built under the lock: a racing caller waits for this
        // build instead of duplicating it.  A fatal build inserts
        // nothing.
        it = m.entries
                 .emplace(key, std::make_unique<const PipelineSkeleton>(
                                   buildPipelineSkeleton(dag,
                                                         max_orders)))
                 .first;
    }
    return *it->second;
}

std::size_t
pipelineSkeletonCount()
{
    SkeletonMemo &m = memo();
    const std::lock_guard<std::mutex> lock(m.mutex);
    return m.entries.size();
}

} // namespace transfusion::dpipe
