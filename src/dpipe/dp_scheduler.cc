/**
 * @file
 * Implementation of the Eq. 43-46 DP scheduler.
 */

#include "dp_scheduler.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "obs/obs.hh"

namespace transfusion::dpipe
{

using costmodel::PeTarget;

const OpPlacement &
Schedule::placementOf(int op) const
{
    for (const auto &p : placements) {
        if (p.op == op)
            return p;
    }
    tf_panic("op ", op, " not present in schedule");
}

std::string
Schedule::toString(const std::vector<std::string> &op_names) const
{
    std::ostringstream os;
    for (const auto &p : placements) {
        std::string name = p.op < static_cast<int>(op_names.size())
            ? op_names[static_cast<std::size_t>(p.op)]
            : ("op" + std::to_string(p.op));
        os << "  " << name << " on "
           << costmodel::toString(p.pe) << "  ["
           << formatSeconds(p.start) << ", "
           << formatSeconds(p.end) << ")\n";
    }
    os << "  makespan " << formatSeconds(makespan) << "\n";
    return os.str();
}

std::string
Schedule::toGantt(const std::vector<std::string> &op_names,
                  int width) const
{
    tf_assert(width >= 8, "gantt width must be at least 8");
    if (makespan <= 0 || placements.empty())
        return "(empty schedule)\n";

    std::string rows[2];
    rows[0].assign(static_cast<std::size_t>(width), '.');
    rows[1].assign(static_cast<std::size_t>(width), '.');

    for (const auto &p : placements) {
        if (p.end <= p.start)
            continue;
        auto col = [&](double t) {
            return std::min(width - 1,
                            static_cast<int>(t / makespan
                                             * width));
        };
        const int c0 = col(p.start);
        const int c1 = std::max(c0, col(p.end) - 1);
        std::string &row =
            rows[p.pe == PeTarget::Array2d ? 0 : 1];
        std::string label =
            p.op < static_cast<int>(op_names.size())
                ? op_names[static_cast<std::size_t>(p.op)]
                : std::to_string(p.op);
        for (int c = c0; c <= c1; ++c) {
            const std::size_t li = static_cast<std::size_t>(c - c0);
            row[static_cast<std::size_t>(c)] =
                li < label.size() ? label[li] : '=';
        }
    }

    std::ostringstream os;
    os << "  2D |" << rows[0] << "|\n";
    os << "  1D |" << rows[1] << "|\n";
    os << "      0" << std::string(static_cast<std::size_t>(
                           std::max(0, width - 12)), ' ')
       << formatSeconds(makespan) << "\n";
    return os.str();
}

Schedule
dpSchedule(const einsum::Dag &dag, const std::vector<int> &order,
           const std::vector<OpLatencyPair> &latency)
{
    const int n = dag.nodeCount();
    tf_assert(static_cast<int>(order.size()) == n,
              "order must cover the DAG");
    tf_assert(static_cast<int>(latency.size()) == n,
              "latency table must cover the DAG");

    // Time[pe_j]: accumulated occupancy of each array (Eq. 46).
    double time_pe[2] = {0.0, 0.0};
    std::vector<double> end_t(static_cast<std::size_t>(n), -1.0);

    Schedule sched;
    sched.placements.reserve(static_cast<std::size_t>(n));

    for (int v : order) {
        // Latest completion among dependencies (Eq. 43, second arg).
        double dep_ready = 0.0;
        for (int p : dag.predecessors(v)) {
            const double e = end_t[static_cast<std::size_t>(p)];
            tf_assert(e >= 0, "order is not topological: op ", v,
                      " scheduled before predecessor ", p);
            dep_ready = std::max(dep_ready, e);
        }

        // Evaluate both arrays; commit to the earliest finisher
        // (Eq. 44-45).
        double best_end = 0.0, best_start = 0.0;
        int best_pe = -1;
        for (int j = 0; j < 2; ++j) {
            const double start = std::max(time_pe[j], dep_ready);
            const double end = start
                + latency[static_cast<std::size_t>(v)]
                         [static_cast<std::size_t>(j)];
            if (best_pe < 0 || end < best_end) {
                best_pe = j;
                best_end = end;
                best_start = start;
            }
        }

        // Advance the winning array's timeline (Eq. 46).
        time_pe[best_pe] = best_end;
        end_t[static_cast<std::size_t>(v)] = best_end;

        OpPlacement pl;
        pl.op = v;
        pl.pe = best_pe == 0 ? PeTarget::Array2d : PeTarget::Array1d;
        pl.start = best_start;
        pl.end = best_end;
        sched.placements.push_back(pl);

        const double dur = best_end - best_start;
        if (best_pe == 0)
            sched.busy_2d += dur;
        else
            sched.busy_1d += dur;
        sched.makespan = std::max(sched.makespan, best_end);
    }
    return sched;
}

OrderSet::OrderSet(const einsum::Dag &dag, std::size_t max_orders)
    : nodes_(dag.nodeCount()), dag_(dag)
{
    if (nodes_ > 256)
        tf_fatal("candidate orders over ", nodes_,
                 " nodes do not fit byte ids");
    pred_begin_.reserve(static_cast<std::size_t>(nodes_) + 1);
    for (int v = 0; v < nodes_; ++v) {
        pred_begin_.push_back(
            static_cast<std::uint16_t>(pred_ids_.size()));
        for (int p : dag.predecessors(v))
            pred_ids_.push_back(static_cast<std::uint8_t>(p));
    }
    pred_begin_.push_back(static_cast<std::uint16_t>(pred_ids_.size()));

    append(dag.topoSort());
    if (max_orders > 1) {
        dag.forEachTopoOrder(max_orders,
                             [this](const std::vector<int> &order) {
                                 append(order);
                             });
    }
    ids_.shrink_to_fit();
    shared_.shrink_to_fit();
}

void
OrderSet::append(const std::vector<int> &order)
{
    // Common prefix with the previous order (the last nodes_ ids).
    std::size_t shared = 0;
    if (count_ > 0) {
        const std::uint8_t *prev = ids_.data() + ids_.size() - order.size();
        while (shared < order.size()
               && prev[shared] == static_cast<std::uint8_t>(order[shared]))
            ++shared;
    }
    shared_.push_back(static_cast<std::uint16_t>(shared));
    for (int v : order)
        ids_.push_back(static_cast<std::uint8_t>(v));
    ++count_;
}

std::vector<int>
OrderSet::orderVector(std::size_t i) const
{
    tf_assert(i < count_, "order ", i, " out of range");
    const std::uint8_t *o = order(i);
    return std::vector<int>(o, o + nodes_);
}

void
DpSearchStats::record() const
{
    TF_COUNT("dpipe/dp/orders_tried", orders_tried);
    TF_COUNT("dpipe/dp/orders_pruned", orders_pruned);
    TF_COUNT("dpipe/dp/states_explored", states_explored);
}

OrderScore
OrderSet::best(const std::vector<OpLatencyPair> &latency,
               DpSearchStats &stats) const
{
    tf_assert(count_ > 0, "no candidate orders");
    tf_assert(static_cast<int>(latency.size()) == nodes_,
              "latency table must cover the DAG");

    // dpSchedule's arithmetic, step for step, minus the placements:
    // the same max/+ sequence and the same strict `<` between the
    // arrays.  at[k] is the DP state before position k: both
    // arrays' occupancy and the makespan so far.  An order's first
    // shared_[i] positions hold the previous order's nodes, so
    // their end times in end_t and the state after them still hold.
    struct State
    {
        double time_pe[2];
        double makespan;
    };
    std::array<State, 257> at{};
    std::array<double, 256> end_t{};
    at[0] = State{{0.0, 0.0}, 0.0};

    OrderScore best;
    std::int64_t pruned = 0;
    for (std::size_t i = 0; i < count_; ++i) {
        const std::uint8_t *o = order(i);
        for (int k = shared_[i]; k < nodes_; ++k) {
            const std::size_t v = o[k];
            double dep_ready = 0.0;
            for (std::size_t e = pred_begin_[v]; e < pred_begin_[v + 1];
                 ++e)
                dep_ready = std::max(dep_ready, end_t[pred_ids_[e]]);
            const State &now = at[static_cast<std::size_t>(k)];
            const OpLatencyPair &lat = latency[v];
            const double end_2d =
                std::max(now.time_pe[0], dep_ready) + lat[0];
            const double end_1d =
                std::max(now.time_pe[1], dep_ready) + lat[1];
            const int pe = end_1d < end_2d ? 1 : 0;
            const double end = pe == 0 ? end_2d : end_1d;
            State &next = at[static_cast<std::size_t>(k) + 1];
            next = now;
            next.time_pe[pe] = end;
            next.makespan = std::max(now.makespan, end);
            end_t[v] = end;
        }
        const double m = at[static_cast<std::size_t>(nodes_)].makespan;
        if (i == 0 || m < best.makespan)
            best = {i, m};
        else
            ++pruned;
    }
    const auto tried = static_cast<std::int64_t>(count_);
    stats.orders_tried += tried;
    stats.orders_pruned += pruned;
    stats.states_explored += tried * static_cast<std::int64_t>(nodes_);
    return best;
}

Schedule
OrderSet::schedule(std::size_t i,
                   const std::vector<OpLatencyPair> &latency) const
{
    return dpSchedule(dag_, orderVector(i), latency);
}

Schedule
bestDpSchedule(const einsum::Dag &dag,
               const std::vector<OpLatencyPair> &latency,
               std::size_t max_orders)
{
    const OrderSet orders(dag, max_orders);
    DpSearchStats stats;
    const OrderScore best = orders.best(latency, stats);
    stats.record();
    return dpSchedule(dag, orders.orderVector(best.index), latency);
}

} // namespace transfusion::dpipe
