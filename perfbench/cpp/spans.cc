#include "spans.hh"

#include <algorithm>
#include <limits>
#include <set>

namespace perfbench
{

namespace
{

struct Boundary
{
    double t = 0;
    bool start = false;
    int depth = 0;
    std::size_t span = 0;
};

/** Ends before starts at one instant; inner ends first, outer
 *  starts first, so equal timestamps keep each thread's nesting. */
bool
boundaryBefore(const Boundary &a, const Boundary &b)
{
    if (a.t != b.t)
        return a.t < b.t;
    if (a.start != b.start)
        return !a.start;
    if (a.depth != b.depth)
        return a.start ? a.depth < b.depth : a.depth > b.depth;
    return a.span < b.span;
}

/** Parent thread of every non-root thread (see spans.hh). */
std::map<int, int>
parentThreads(const std::vector<Span> &spans, int root_tid)
{
    std::map<int, std::pair<double, double>> window;
    for (const Span &s : spans) {
        auto [it, fresh] =
            window.try_emplace(s.tid, s.start_s, s.end_s);
        if (!fresh) {
            it->second.first = std::min(it->second.first, s.start_s);
            it->second.second = std::max(it->second.second, s.end_s);
        }
    }
    std::map<int, int> parent;
    for (const auto &[tid, w] : window) {
        if (tid == root_tid)
            continue;
        int best_tid = root_tid;
        double best_len = std::numeric_limits<double>::infinity();
        for (const Span &s : spans) {
            const double len = s.end_s - s.start_s;
            if (s.tid != tid && s.start_s <= w.first
                && s.end_s >= w.second && len < best_len) {
                best_len = len;
                best_tid = s.tid;
            }
        }
        parent[tid] = best_tid;
    }
    return parent;
}

} // namespace

SelfTimes
selfTimes(const std::vector<Span> &spans, int root_tid,
          double begin_s, double end_s)
{
    std::vector<Span> clipped;
    for (const Span &s : spans) {
        Span c = s;
        c.start_s = std::max(s.start_s, begin_s);
        c.end_s = std::min(s.end_s, end_s);
        if (c.end_s > c.start_s)
            clipped.push_back(std::move(c));
    }
    const auto parent = parentThreads(clipped, root_tid);

    std::vector<Boundary> bounds;
    bounds.reserve(2 * clipped.size());
    for (std::size_t i = 0; i < clipped.size(); ++i) {
        bounds.push_back({ clipped[i].start_s, true,
                           clipped[i].depth, i });
        bounds.push_back({ clipped[i].end_s, false,
                           clipped[i].depth, i });
    }
    std::sort(bounds.begin(), bounds.end(), boundaryBefore);

    SelfTimes out;
    std::map<int, std::vector<std::size_t>> open; // per-thread stack
    const auto charge = [&](double dt) {
        if (dt <= 0)
            return;
        std::set<int> waiting;
        for (const auto &[tid, stack] : open) {
            if (stack.empty())
                continue;
            // Mark every ancestor thread as waiting; the visited
            // set also stops a (degenerate) parent cycle.
            std::set<int> seen{ tid };
            for (auto it = parent.find(tid); it != parent.end();
                 it = parent.find(it->second)) {
                if (!seen.insert(it->second).second)
                    break;
                waiting.insert(it->second);
            }
        }
        std::vector<std::size_t> charged;
        for (const auto &[tid, stack] : open)
            if (!stack.empty() && !waiting.count(tid))
                charged.push_back(stack.back());
        if (charged.empty()) {
            out.uncovered_s += dt;
            return;
        }
        const double share = dt / static_cast<double>(charged.size());
        for (const std::size_t i : charged)
            out.by_name[clipped[i].name] += share;
    };

    double now = begin_s;
    for (const Boundary &b : bounds) {
        charge(b.t - now);
        now = b.t;
        auto &stack = open[clipped[b.span].tid];
        if (b.start) {
            stack.push_back(b.span);
        } else {
            const auto it =
                std::find(stack.begin(), stack.end(), b.span);
            if (it != stack.end())
                stack.erase(it);
        }
    }
    charge(end_s - now);
    return out;
}

} // namespace perfbench
