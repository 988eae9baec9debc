/**
 * @file
 * Implementation of the DAG utility.
 */

#include "dag.hh"

#include <algorithm>
#include <queue>
#include <sstream>

#include "common/logging.hh"

namespace transfusion::einsum
{

Dag::Dag(int n)
    : succ(n), pred(n)
{
    tf_assert(n >= 0, "negative node count");
}

void
Dag::addEdge(int from, int to)
{
    tf_assert(from >= 0 && from < nodeCount(), "bad edge source ",
              from);
    tf_assert(to >= 0 && to < nodeCount(), "bad edge target ", to);
    tf_assert(from != to, "self edge on node ", from);
    if (hasEdge(from, to))
        return;
    succ[from].push_back(to);
    pred[to].push_back(from);
    std::sort(succ[from].begin(), succ[from].end());
    std::sort(pred[to].begin(), pred[to].end());
}

const std::vector<int> &
Dag::successors(int v) const
{
    tf_assert(v >= 0 && v < nodeCount(), "bad node ", v);
    return succ[v];
}

const std::vector<int> &
Dag::predecessors(int v) const
{
    tf_assert(v >= 0 && v < nodeCount(), "bad node ", v);
    return pred[v];
}

bool
Dag::hasEdge(int from, int to) const
{
    const auto &s = successors(from);
    return std::binary_search(s.begin(), s.end(), to);
}

int
Dag::edgeCount() const
{
    int total = 0;
    for (const auto &s : succ)
        total += static_cast<int>(s.size());
    return total;
}

std::vector<int>
Dag::sources() const
{
    std::vector<int> out;
    for (int v = 0; v < nodeCount(); ++v) {
        if (pred[v].empty())
            out.push_back(v);
    }
    return out;
}

std::vector<int>
Dag::sinks() const
{
    std::vector<int> out;
    for (int v = 0; v < nodeCount(); ++v) {
        if (succ[v].empty())
            out.push_back(v);
    }
    return out;
}

std::vector<int>
Dag::topoSort() const
{
    std::vector<int> indeg(nodeCount());
    for (int v = 0; v < nodeCount(); ++v)
        indeg[v] = static_cast<int>(pred[v].size());

    std::priority_queue<int, std::vector<int>, std::greater<>> ready;
    for (int v = 0; v < nodeCount(); ++v) {
        if (indeg[v] == 0)
            ready.push(v);
    }

    std::vector<int> order;
    order.reserve(nodeCount());
    while (!ready.empty()) {
        int v = ready.top();
        ready.pop();
        order.push_back(v);
        for (int w : succ[v]) {
            if (--indeg[w] == 0)
                ready.push(w);
        }
    }
    tf_assert(static_cast<int>(order.size()) == nodeCount(),
              "cycle detected in DAG");
    return order;
}

bool
Dag::isAcyclic() const
{
    std::vector<int> indeg(nodeCount());
    for (int v = 0; v < nodeCount(); ++v)
        indeg[v] = static_cast<int>(pred[v].size());
    std::queue<int> ready;
    for (int v = 0; v < nodeCount(); ++v) {
        if (indeg[v] == 0)
            ready.push(v);
    }
    int seen = 0;
    while (!ready.empty()) {
        int v = ready.front();
        ready.pop();
        ++seen;
        for (int w : succ[v]) {
            if (--indeg[w] == 0)
                ready.push(w);
        }
    }
    return seen == nodeCount();
}

bool
Dag::isWeaklyConnected(const std::vector<bool> &members) const
{
    tf_assert(static_cast<int>(members.size()) == nodeCount(),
              "membership vector size mismatch");
    int start = -1, count = 0;
    for (int v = 0; v < nodeCount(); ++v) {
        if (members[v]) {
            if (start < 0)
                start = v;
            ++count;
        }
    }
    if (count <= 1)
        return true;

    std::vector<bool> visited(nodeCount(), false);
    std::queue<int> q;
    q.push(start);
    visited[start] = true;
    int reached = 0;
    while (!q.empty()) {
        int v = q.front();
        q.pop();
        ++reached;
        auto visit = [&](int w) {
            if (members[w] && !visited[w]) {
                visited[w] = true;
                q.push(w);
            }
        };
        for (int w : succ[v])
            visit(w);
        for (int w : pred[v])
            visit(w);
    }
    return reached == count;
}

bool
Dag::allReachableFromSources(const std::vector<bool> &members) const
{
    tf_assert(static_cast<int>(members.size()) == nodeCount(),
              "membership vector size mismatch");
    std::vector<bool> visited(nodeCount(), false);
    std::queue<int> q;
    for (int v : sources()) {
        if (members[v]) {
            visited[v] = true;
            q.push(v);
        }
    }
    while (!q.empty()) {
        int v = q.front();
        q.pop();
        for (int w : succ[v]) {
            if (members[w] && !visited[w]) {
                visited[w] = true;
                q.push(w);
            }
        }
    }
    for (int v = 0; v < nodeCount(); ++v) {
        if (members[v] && !visited[v])
            return false;
    }
    return true;
}

bool
Dag::isDependencyComplete(const std::vector<bool> &members) const
{
    tf_assert(static_cast<int>(members.size()) == nodeCount(),
              "membership vector size mismatch");
    for (int v = 0; v < nodeCount(); ++v) {
        if (!members[v])
            continue;
        for (int p : pred[v]) {
            if (!members[p])
                return false;
        }
    }
    return true;
}

namespace
{

/** Shared DFS for counting/enumerating linear extensions. */
struct TopoEnum
{
    const Dag &dag;
    std::vector<int> indeg;
    std::vector<bool> placed;
    std::vector<int> current;
    const std::function<void(const std::vector<int> &)> *visit;
    std::uint64_t count = 0;
    std::uint64_t cap;

    TopoEnum(const Dag &d, std::uint64_t cap_,
             const std::function<void(const std::vector<int> &)> *v)
        : dag(d), indeg(d.nodeCount()), placed(d.nodeCount(), false),
          visit(v), cap(cap_)
    {
        for (int v = 0; v < d.nodeCount(); ++v)
            indeg[v] = static_cast<int>(d.predecessors(v).size());
    }

    void
    run()
    {
        if (static_cast<int>(current.size()) == dag.nodeCount()) {
            ++count;
            if (visit)
                (*visit)(current);
            return;
        }
        for (int v = 0; v < dag.nodeCount() && count < cap; ++v) {
            if (placed[v] || indeg[v] != 0)
                continue;
            placed[v] = true;
            current.push_back(v);
            for (int w : dag.successors(v))
                --indeg[w];
            run();
            for (int w : dag.successors(v))
                ++indeg[w];
            current.pop_back();
            placed[v] = false;
        }
    }
};

} // namespace

std::uint64_t
Dag::countTopoOrders(std::uint64_t cap) const
{
    TopoEnum e(*this, cap, nullptr);
    e.run();
    return e.count;
}

std::vector<std::vector<int>>
Dag::enumerateTopoOrders(std::size_t cap) const
{
    std::vector<std::vector<int>> out;
    forEachTopoOrder(cap, [&out](const std::vector<int> &order) {
        out.push_back(order);
    });
    return out;
}

void
Dag::forEachTopoOrder(
    std::size_t cap,
    const std::function<void(const std::vector<int> &)> &visit) const
{
    TopoEnum e(*this, cap, &visit);
    e.run();
}

std::string
Dag::toDot(const std::vector<std::string> &labels) const
{
    std::ostringstream os;
    os << "digraph cascade {\n";
    for (int v = 0; v < nodeCount(); ++v) {
        os << "  n" << v;
        if (v < static_cast<int>(labels.size()))
            os << " [label=\"" << labels[v] << "\"]";
        os << ";\n";
    }
    for (int v = 0; v < nodeCount(); ++v) {
        for (int w : succ[v])
            os << "  n" << v << " -> n" << w << ";\n";
    }
    os << "}\n";
    return os.str();
}

} // namespace transfusion::einsum
