/**
 * @file
 * Implementation of the TileSeek MCTS.
 */

#include "mcts.hh"

#include <cmath>
#include <limits>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/obs.hh"

namespace transfusion::tileseek
{

TileSeek::TileSeek(SearchSpace space_, FeasibleFn feasible_,
                   CostFn cost_, MctsOptions options_)
    : space(std::move(space_)), feasible(std::move(feasible_)),
      cost(std::move(cost_)), options(options_)
{
    space.validate();
    tf_assert(feasible != nullptr, "feasibility predicate required");
    tf_assert(cost != nullptr, "cost function required");
    if (options.iterations <= 0)
        tf_fatal("MCTS needs a positive iteration budget, got ",
                 options.iterations);
    if (options.threads <= 0)
        tf_fatal("MCTS needs a positive tree count, got ",
                 options.threads);
}

int
TileSeek::selectChild(const Tree &tree, const Node &n, int k) const
{
    // UCB1 = mean + c * sqrt(log(parent visits) / child visits).
    // Each term below is the same IEEE operation on the same
    // operands as scoring every child from scratch, so the choice
    // is bit-identical: log(parent visits) is taken once per scan,
    // each child's mean was cached at its last backprop, and the
    // exploration term is computed once per distinct child visit
    // count within the scan.
    //
    // Unvisited children and children of an unvisited parent are
    // maximally attractive.  The parent guard is defensive: log(0)
    // -> -inf would otherwise surface as a NaN score that silently
    // loses every comparison and skews selection.
    const bool parent_unvisited = n.visits <= 0;
    const double log_n = parent_unvisited
        ? 0.0 : std::log(static_cast<double>(n.visits));
    const Node *children =
        &tree.nodes[static_cast<std::size_t>(n.first_child)];
    // Exploration terms by child visit count, direct-mapped.  Key 0
    // never matches a lookup: unvisited children score infinity.
    constexpr int memo_slots = 16;
    int memo_visits[memo_slots] = {};
    double memo_explore[memo_slots];
    int best_choice = 0;
    double best_score = -1;
    for (int c = 0; c < k; ++c) {
        const Node &child = children[c];
        double score = std::numeric_limits<double>::infinity();
        if (child.visits != 0 && !parent_unvisited) {
            const int slot = child.visits & (memo_slots - 1);
            if (memo_visits[slot] != child.visits) {
                memo_visits[slot] = child.visits;
                memo_explore[slot] = options.ucb_c
                    * std::sqrt(log_n
                                / static_cast<double>(child.visits));
            }
            score = child.mean + memo_explore[slot];
        }
        // Strict improvement: ties keep the lowest choice index.
        if (score > best_score) {
            best_score = score;
            best_choice = c;
        }
    }
    return best_choice;
}

double
TileSeek::evaluate(Tree &tree, const Assignment &a) const
{
    // Every completed leaf counts against the evaluation budget:
    // infeasible points still paid for constraint validation, and
    // reporting only the feasible subset under-counted search cost.
    ++tree.result.evaluations;
    if (!feasible(a)) {
        ++tree.result.infeasible;
        return 0.0; // infeasible leaves earn zero reward
    }

    const double c = cost(a);
    if (tree.reward_scale <= 0)
        tree.reward_scale = c > 0 ? c : 1.0;
    SearchResult &result = tree.result;
    if (!result.found || c < result.best_cost) {
        result.found = true;
        result.best = a;
        result.best_cost = c;
        ++result.best_updates;
    }
    // Shaped reward in (0, 1]: the first feasible cost maps to 0.5,
    // cheaper tilings approach 1.
    return tree.reward_scale / (tree.reward_scale + c);
}

double
TileSeek::rolloutAndScore(Tree &tree, std::size_t level) const
{
    for (std::size_t l = level; l < space.depth(); ++l) {
        const auto &cands = space.choices[l];
        tree.partial[l] = cands[static_cast<std::size_t>(
            tree.rng.nextBelow(cands.size()))];
    }
    return evaluate(tree, tree.partial);
}

void
TileSeek::iterate(Tree &tree) const
{
    std::vector<Node> &nodes = tree.nodes;
    tree.path.clear();
    tree.path.push_back(0);
    std::size_t node = 0;
    std::size_t level = 0;

    // Selection: descend while fully expanded, maximizing UCB.
    while (level < space.depth()) {
        const auto &cands = space.choices[level];
        const int k = static_cast<int>(cands.size());
        // Expansion takes the first unexpanded child, if any.
        const bool expand = nodes[node].expanded < k;
        int choice = 0;
        if (expand) {
            // Reserve the node's whole child block on first use.
            if (nodes[node].first_child < 0) {
                nodes[node].first_child =
                    static_cast<int>(nodes.size());
                nodes.resize(nodes.size()
                             + static_cast<std::size_t>(k));
            }
            choice = nodes[node].expanded++;
            ++tree.nodes_expanded;
        } else {
            // All children expanded: UCB selection.
            choice = selectChild(tree, nodes[node], k);
        }
        tree.partial[level] = cands[static_cast<std::size_t>(choice)];
        node = static_cast<std::size_t>(nodes[node].first_child
                                        + choice);
        tree.path.push_back(static_cast<int>(node));
        ++level;
        if (expand)
            break;
    }

    // Rollout from the frontier node's depth.
    const double reward = rolloutAndScore(tree, level);

    // Backpropagation.
    for (int v : tree.path) {
        Node &n = nodes[static_cast<std::size_t>(v)];
        n.visits += 1;
        n.total_reward += reward;
        n.mean = n.total_reward / static_cast<double>(n.visits);
    }
}

void
TileSeek::searchTree(Tree &tree) const
{
    tree.nodes.emplace_back(); // root
    tree.nodes_expanded = 1;
    for (int i = 0; i < options.iterations; ++i)
        iterate(tree);
}

SearchResult
TileSeek::search()
{
    TF_SPAN("tileseek.search");
    const int k = options.threads;
    std::vector<Tree> trees;
    trees.reserve(static_cast<std::size_t>(k));
    for (int i = 0; i < k; ++i) {
        // Deterministic fork: tree i draws from seed + i, so tree 0
        // is exactly the single-threaded stream.
        trees.emplace_back(options.seed
                               + static_cast<std::uint64_t>(i),
                           space.depth());
    }

    if (k == 1) {
        searchTree(trees[0]);
    } else {
        ThreadPool pool(
            std::min(k, ThreadPool::hardwareThreads()));
        std::vector<std::future<void>> futures;
        futures.reserve(static_cast<std::size_t>(k));
        for (Tree &t : trees) {
            futures.push_back(pool.submit(
                [this, &t]() { searchTree(t); }));
        }
        for (auto &f : futures)
            f.get();
    }

    // Merge in ascending tree order: strict improvement only, so
    // ties resolve to the lowest tree index and the merge is
    // independent of completion order.
    SearchResult merged;
    nodes_expanded = 0;
    for (const Tree &t : trees) {
        nodes_expanded += t.nodes_expanded;
        merged.evaluations += t.result.evaluations;
        merged.infeasible += t.result.infeasible;
        merged.best_updates += t.result.best_updates;
        if (t.result.found
                && (!merged.found
                    || t.result.best_cost < merged.best_cost)) {
            merged.found = true;
            merged.best = t.result.best;
            merged.best_cost = t.result.best_cost;
        }
    }
    // Instrumented at merge time on the calling thread: the worker
    // threads above must not touch the thread-local current
    // registry, or per-task registries installed by outer drivers
    // (Sweep, runScenarios) would miss these counts.
    TF_COUNT("tileseek/searches", 1);
    TF_COUNT("tileseek/trees", k);
    TF_COUNT("tileseek/iterations",
             static_cast<std::int64_t>(k) * options.iterations);
    TF_COUNT("tileseek/evaluations", merged.evaluations);
    TF_COUNT("tileseek/infeasible_leaves", merged.infeasible);
    TF_COUNT("tileseek/best_cost_updates", merged.best_updates);
    TF_COUNT("tileseek/nodes_expanded", nodes_expanded);
    if (merged.found)
        TF_GAUGE_ADD("tileseek/best_cost_sum", merged.best_cost);
    return merged;
}

} // namespace transfusion::tileseek
