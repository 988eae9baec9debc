/**
 * @file
 * Latency-aware DP scheduler (Sec. 4.3, Eq. 43-46).  Given a DAG, a
 * topological order, and a per-op latency on each PE array, the DP
 * walks the order computing for every op its earliest feasible
 * start on each array -- the later of the array's accumulated
 * occupancy (Eq. 43a) and the op's dependencies (Eq. 43b) -- then
 * commits the op to the array finishing earliest (Eq. 45) and
 * advances that array's timeline (Eq. 46).
 */

#ifndef TRANSFUSION_DPIPE_DP_SCHEDULER_HH
#define TRANSFUSION_DPIPE_DP_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "costmodel/latency.hh"
#include "einsum/dag.hh"

namespace transfusion::dpipe
{

/** Latency of one op on [Array2d, Array1d], seconds. */
using OpLatencyPair = std::array<double, 2>;

/** Index into OpLatencyPair for a target. */
inline std::size_t
targetIndex(costmodel::PeTarget t)
{
    return t == costmodel::PeTarget::Array2d ? 0 : 1;
}

/** One scheduled op. */
struct OpPlacement
{
    int op = -1;
    costmodel::PeTarget pe = costmodel::PeTarget::Array2d;
    double start = 0;
    double end = 0;
};

/** Result of one DP run. */
struct Schedule
{
    std::vector<OpPlacement> placements; ///< schedule order
    double makespan = 0;
    double busy_2d = 0; ///< total seconds of 2D-array occupancy
    double busy_1d = 0; ///< total seconds of 1D-array occupancy

    /** Placement of a given op id; panic if absent. */
    const OpPlacement &placementOf(int op) const;

    /** Multi-line textual rendering (for dumps/examples). */
    std::string toString(
        const std::vector<std::string> &op_names = {}) const;

    /**
     * ASCII Gantt chart: one row per PE array, time rendered in
     * `width` columns, each op drawn as a labelled span.  Rows:
     * "2D |" and "1D |".
     */
    std::string toGantt(const std::vector<std::string> &op_names
                        = {},
                        int width = 72) const;
};

/**
 * Run the Eq. 43-46 DP over `order` (a topological order of `dag`).
 * `latency[v]` gives op v's seconds on [2D, 1D].
 */
Schedule dpSchedule(const einsum::Dag &dag,
                    const std::vector<int> &order,
                    const std::vector<OpLatencyPair> &latency);

/**
 * Search statistics of the DP over candidate orders: every DP run
 * explores one state per (op, order) pair; orders that fail to
 * beat the incumbent makespan are the pruned share.
 */
struct DpSearchStats
{
    std::int64_t orders_tried = 0;
    std::int64_t orders_pruned = 0;
    std::int64_t states_explored = 0;

    /** Add to the current registry's dpipe/dp counters. */
    void record() const;
};

/** Winner of OrderSet::best. */
struct OrderScore
{
    std::size_t index = 0; ///< into the OrderSet
    double makespan = 0;
};

/**
 * The candidate topological orders of one DAG, stored flat as byte
 * node ids (order i is ids[i*nodes, (i+1)*nodes)): the canonical
 * Kahn order first, then -- when `max_orders` > 1 -- up to
 * `max_orders` lexicographically enumerated ones.  The Kahn order
 * is often also the first lexicographic one; it is kept twice, so
 * the search statistics count what the DP actually runs.  A copy of
 * the DAG, flat copies of its predecessor lists and each order's
 * common prefix with the previous one ride along, so the set scores
 * and schedules its orders on its own.  Fatal above 256 nodes (ids
 * must fit a byte).
 */
class OrderSet
{
  public:
    OrderSet() = default;
    OrderSet(const einsum::Dag &dag, std::size_t max_orders);

    int nodes() const { return nodes_; }
    std::size_t size() const { return count_; }
    /** Order i as dpSchedule takes it. */
    std::vector<int> orderVector(std::size_t i) const;

    /**
     * Score every order with the Eq. 43-46 DP and keep the first
     * strict minimum.  Each order's makespan is bit-identical to
     * dpSchedule's: the DP state after a prefix shared with the
     * previous order is reused, not recomputed, so every order sees
     * the same operations in the same sequence.  Allocates nothing;
     * adds to `stats`.
     */
    OrderScore best(const std::vector<OpLatencyPair> &latency,
                    DpSearchStats &stats) const;

    /** dpSchedule over order i of the DAG this set was built from. */
    Schedule schedule(std::size_t i,
                      const std::vector<OpLatencyPair> &latency) const;

  private:
    void append(const std::vector<int> &order);
    /** First id of order i; `nodes_` ids follow. */
    const std::uint8_t *order(std::size_t i) const
    {
        return ids_.data() + i * static_cast<std::size_t>(nodes_);
    }

    int nodes_ = 0;
    /** The DAG the orders are of; schedule() runs dpSchedule on it. */
    einsum::Dag dag_;
    std::size_t count_ = 0;
    std::vector<std::uint8_t> ids_;
    /** Leading ids order i shares with order i-1 (0 for i = 0). */
    std::vector<std::uint16_t> shared_;
    /** Predecessors of v: pred_ids_[pred_begin_[v], pred_begin_[v+1]). */
    std::vector<std::uint16_t> pred_begin_;
    std::vector<std::uint8_t> pred_ids_;
};

/**
 * Convenience: score `dag`'s candidate orders (see OrderSet), then
 * materialize the winner with dpSchedule.  Records the dpipe/dp
 * counters.
 */
Schedule bestDpSchedule(const einsum::Dag &dag,
                        const std::vector<OpLatencyPair> &latency,
                        std::size_t max_orders);

} // namespace transfusion::dpipe

#endif // TRANSFUSION_DPIPE_DP_SCHEDULER_HH
