/**
 * @file
 * Differential fuzz test for the TileSeek search kernel.  The
 * kernel keeps each node's children in one contiguous arena block
 * and caches the UCB terms; the reference below is the plain
 * formulation it replaced -- a per-node child_of_choice table, a
 * linear scan for the first unexpanded child, and every UCB score
 * computed from scratch.  On random spaces, feasibility masks and
 * tie-heavy costs both must agree to the bit, per (seed, threads).
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.hh"
#include "tileseek/mcts.hh"

namespace transfusion::tileseek
{
namespace
{

/** The straightforward MCTS: the oracle for TileSeek::search. */
class ReferenceSearch
{
  public:
    ReferenceSearch(const SearchSpace &space, FeasibleFn feasible,
                    CostFn cost, MctsOptions options)
        : space(space), feasible(std::move(feasible)),
          cost(std::move(cost)), options(options)
    {}

    SearchResult
    search()
    {
        SearchResult merged;
        nodes_expanded = 0;
        for (int i = 0; i < options.threads; ++i) {
            Tree t(options.seed + static_cast<std::uint64_t>(i));
            newNode(t, 0);
            for (int it = 0; it < options.iterations; ++it)
                iterate(t);
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
        return merged;
    }

    std::int64_t nodesExpanded() const { return nodes_expanded; }

  private:
    struct Node
    {
        int level = 0;
        std::vector<int> child_of_choice; ///< -1 = unexpanded
        double total_reward = 0;
        int visits = 0;
    };

    struct Tree
    {
        explicit Tree(std::uint64_t seed) : rng(seed) {}

        std::vector<Node> nodes;
        Rng rng;
        std::int64_t nodes_expanded = 0;
        double reward_scale = -1;
        SearchResult result;
    };

    const SearchSpace &space;
    FeasibleFn feasible;
    CostFn cost;
    MctsOptions options;
    std::int64_t nodes_expanded = 0;

    int
    newNode(Tree &tree, int level) const
    {
        Node n;
        n.level = level;
        if (level < static_cast<int>(space.depth())) {
            n.child_of_choice.assign(
                space.choices[static_cast<std::size_t>(level)].size(),
                -1);
        }
        tree.nodes.push_back(std::move(n));
        ++tree.nodes_expanded;
        return static_cast<int>(tree.nodes.size()) - 1;
    }

    double
    ucbScore(const Node &child, int parent_visits) const
    {
        if (child.visits == 0 || parent_visits <= 0)
            return std::numeric_limits<double>::infinity();
        const double mean = child.total_reward
            / static_cast<double>(child.visits);
        const double explore = options.ucb_c
            * std::sqrt(std::log(static_cast<double>(parent_visits))
                        / static_cast<double>(child.visits));
        return mean + explore;
    }

    double
    evaluate(Tree &tree, const Assignment &a) const
    {
        ++tree.result.evaluations;
        if (!feasible(a)) {
            ++tree.result.infeasible;
            return 0.0;
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
        return tree.reward_scale / (tree.reward_scale + c);
    }

    void
    iterate(Tree &tree) const
    {
        Assignment partial(space.depth(), 0);
        std::vector<int> path;
        int node = 0;
        path.push_back(node);

        while (true) {
            Node &n = tree.nodes[static_cast<std::size_t>(node)];
            if (n.level == static_cast<int>(space.depth()))
                break;
            const auto &cands =
                space.choices[static_cast<std::size_t>(n.level)];

            int unexpanded = -1;
            for (std::size_t c = 0; c < cands.size(); ++c) {
                if (n.child_of_choice[c] < 0) {
                    unexpanded = static_cast<int>(c);
                    break;
                }
            }
            if (unexpanded >= 0) {
                const int child = newNode(tree, n.level + 1);
                auto &nodes = tree.nodes;
                Node &parent = nodes[static_cast<std::size_t>(node)];
                parent.child_of_choice[static_cast<std::size_t>(
                    unexpanded)] = child;
                partial[static_cast<std::size_t>(parent.level)] =
                    cands[static_cast<std::size_t>(unexpanded)];
                node = child;
                path.push_back(node);
                break;
            }

            int best_choice = 0;
            double best_score = -1;
            for (std::size_t c = 0; c < cands.size(); ++c) {
                const int child = n.child_of_choice[c];
                const double score = ucbScore(
                    tree.nodes[static_cast<std::size_t>(child)],
                    n.visits);
                if (score > best_score) {
                    best_score = score;
                    best_choice = static_cast<int>(c);
                }
            }
            partial[static_cast<std::size_t>(n.level)] =
                cands[static_cast<std::size_t>(best_choice)];
            node = n.child_of_choice[static_cast<std::size_t>(
                best_choice)];
            path.push_back(node);
        }

        const std::size_t frontier = static_cast<std::size_t>(
            tree.nodes[static_cast<std::size_t>(node)].level);
        for (std::size_t l = frontier; l < space.depth(); ++l) {
            const auto &cands = space.choices[l];
            partial[l] = cands[static_cast<std::size_t>(
                tree.rng.nextBelow(cands.size()))];
        }
        const double reward = evaluate(tree, partial);

        for (int v : path) {
            Node &n = tree.nodes[static_cast<std::size_t>(v)];
            n.visits += 1;
            n.total_reward += reward;
        }
    }
};

/** Order-sensitive hash of an assignment under a salt. */
std::uint64_t
hashAssignment(const Assignment &a, std::uint64_t salt)
{
    Rng mix(salt);
    std::uint64_t h = mix.next();
    for (const std::int64_t v : a) {
        Rng step(h ^ static_cast<std::uint64_t>(v));
        h = step.next();
    }
    return h;
}

SearchSpace
randomSpace(Rng &rng)
{
    SearchSpace space;
    const std::size_t depth = 1 + rng.nextBelow(7);
    for (std::size_t l = 0; l < depth; ++l) {
        space.level_names.push_back("l" + std::to_string(l));
        const std::size_t k = 1 + rng.nextBelow(40);
        std::vector<std::int64_t> cands;
        for (std::size_t c = 0; c < k; ++c)
            cands.push_back(
                1 + static_cast<std::int64_t>(rng.nextBelow(64)));
        space.choices.push_back(std::move(cands));
    }
    return space;
}

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof a) == 0;
}

TEST(MctsFuzz, KernelMatchesReferenceSearch)
{
    Rng rng(0x7115EE4);
    const double ucb_constants[] = { 1.41421356237, 0.0, 0.5, 3.0 };
    int tie_trials = 0;
    for (int trial = 0; trial < 240; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        const SearchSpace space = randomSpace(rng);
        const std::uint64_t salt = rng.next();
        // Feasible share in percent, from nothing to everything.
        const std::uint64_t density = trial % 8 == 0
            ? 0 : (trial % 8 == 1 ? 100 : rng.nextBelow(101));
        // Few distinct costs on even trials: exact ties abound.
        const std::uint64_t levels = trial % 2 == 0
            ? 1 + rng.nextBelow(4) : 1000003;
        tie_trials += levels <= 4 ? 1 : 0;
        auto feasible = [salt, density](const Assignment &a) {
            return hashAssignment(a, salt) % 100 < density;
        };
        auto cost = [salt, levels](const Assignment &a) {
            return static_cast<double>(
                hashAssignment(a, ~salt) % levels);
        };

        MctsOptions opts;
        opts.iterations = 1 + static_cast<int>(rng.nextBelow(600));
        opts.seed = rng.next();
        opts.ucb_c = ucb_constants[trial % 4];
        for (const int threads : { 1, 3 }) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            opts.threads = threads;
            TileSeek kernel(space, feasible, cost, opts);
            ReferenceSearch reference(space, feasible, cost, opts);
            const SearchResult got = kernel.search();
            const SearchResult want = reference.search();
            ASSERT_EQ(got.found, want.found);
            EXPECT_EQ(got.best, want.best);
            EXPECT_TRUE(sameBits(got.best_cost, want.best_cost))
                << got.best_cost << " vs " << want.best_cost;
            EXPECT_EQ(got.evaluations, want.evaluations);
            EXPECT_EQ(got.infeasible, want.infeasible);
            EXPECT_EQ(got.best_updates, want.best_updates);
            EXPECT_EQ(kernel.nodesExpanded(),
                      reference.nodesExpanded());
        }
    }
    EXPECT_GT(tie_trials, 100);
}

} // namespace
} // namespace transfusion::tileseek
