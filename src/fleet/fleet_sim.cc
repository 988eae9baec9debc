/**
 * @file
 * The shared-virtual-clock fleet loop: advance, fault, route, tick.
 */

#include "fleet_sim.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "fleet/event_queue.hh"
#include "multichip/sharded_serve.hh"
#include "obs/obs.hh"

namespace transfusion::fleet
{

namespace
{

constexpr double kInf = std::numeric_limits<double>::infinity();

/** (arrival, id) — the one routing order used everywhere. */
bool
arrivesBefore(const serve::Request &a, const serve::Request &b)
{
    return a.arrival_s != b.arrival_s ? a.arrival_s < b.arrival_s
                                      : a.id < b.id;
}

/** Mutable per-replica run state (the session plus flags). */
struct ReplicaState
{
    bool active = false;   ///< holds (or held) a serving slot
    bool draining = false; ///< finishing work, not routable
    bool down = false;     ///< inside a fault down-span
    std::optional<serve::ServeSession> session;
    /** Down-spans consumed so far / whether inside spans[ix]. */
    std::size_t span_ix = 0;
    bool in_span = false;
    /** Slowdown-timeline steps consumed so far. */
    std::size_t slow_ix = 0;
    /** Active gray-failure multiplier (1.0 = full speed); applied
     *  to the session — including one created later by a
     *  scale-up — so the replica always runs at the schedule's
     *  current pace. */
    double mult = 1.0;
    /** Health-sample bookkeeping: session clock and executed
     *  rounds at the previous monitor update. */
    double obs_now = 0;
    std::int64_t obs_rounds = 0;
};

} // namespace

FleetSimulator::FleetSimulator(int replicas,
                               multichip::ClusterConfig cluster,
                               multichip::ShardSpec spec,
                               model::TransformerConfig cfg,
                               serve::WorkloadOptions workload,
                               FleetOptions options)
    : replicas_(replicas), cluster_(std::move(cluster)), spec_(spec),
      options_(std::move(options))
{
    if (replicas_ < 1)
        tf_fatal("a fleet needs at least one replica, got ",
                 replicas_);
    cfg.validate();
    workload.validate();
    options_.retry.validate();
    if (options_.autoscaler.enabled)
        options_.autoscaler.validate(replicas_);
    if (options_.health.enabled)
        options_.health.validate();
    if (options_.brownout.enabled)
        options_.brownout.validate();
    cluster_.validate();
    if (spec_.tp <= 0 || spec_.pp <= 0)
        spec_ = multichip::bestServingSpec(cluster_, cfg, workload,
                                           options_.serve,
                                           options_.plan_threads);
    // Calibrate once, share everywhere: sessions never touch the
    // simulator's (immutable) tables, so every replica runs on one
    // instance.
    sim_.emplace(multichip::shardedSimulator(
        cluster_, cfg, spec_, workload, options_.serve));
}

FleetSimulator
FleetSimulator::uniform(int replicas,
                        multichip::ClusterConfig cluster,
                        model::TransformerConfig cfg,
                        serve::WorkloadOptions workload,
                        FleetOptions options)
{
    return uniform(replicas, std::move(cluster),
                   multichip::ShardSpec{ 0, 0 }, std::move(cfg),
                   workload, std::move(options));
}

FleetSimulator
FleetSimulator::uniform(int replicas,
                        multichip::ClusterConfig cluster,
                        multichip::ShardSpec spec,
                        model::TransformerConfig cfg,
                        serve::WorkloadOptions workload,
                        FleetOptions options)
{
    return FleetSimulator(replicas, std::move(cluster), spec,
                          std::move(cfg), workload,
                          std::move(options));
}

FleetMetrics
FleetSimulator::run(const std::vector<serve::Request> &requests,
                    const FleetRunOptions &run) const
{
    const int pool = replicas_;
    const serve::ServeSimulator &sim = *sim_;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const serve::Request &r = requests[i];
        if (r.prompt_len <= 0 || r.output_len <= 0)
            tf_fatal("bad request: ", r.toString());
        if (i > 0 && r.arrival_s < requests[i - 1].arrival_s)
            tf_fatal("requests must be sorted by arrival time");
    }
    if (run.faults.size() > static_cast<std::size_t>(pool))
        tf_fatal("got ", run.faults.size(),
                 " fault schedules for ", pool, " replicas");

    // Per-replica unroutable windows and gray-failure multiplier
    // timelines (validates each schedule).
    std::vector<std::vector<fault::DownSpan>> spans(
        static_cast<std::size_t>(pool));
    std::vector<std::vector<fault::SlowdownStep>> timelines(
        static_cast<std::size_t>(pool));
    bool any_faults = false;
    for (std::size_t i = 0; i < run.faults.size(); ++i) {
        spans[i] = run.faults[i].downSpans(cluster_.size());
        timelines[i] =
            run.faults[i].slowdownTimeline(cluster_.size());
        any_faults = any_faults || !spans[i].empty()
            || !timelines[i].empty();
    }

    if (pool == 1 && run.policy == PolicyKind::PassThrough
        && !any_faults && !options_.autoscaler.enabled
        && !options_.health.enabled
        && !options_.brownout.enabled) {
        // Delegate outright: the same code path (and the same
        // instrumentation) as the single sharded replica, so the
        // trivial fleet is bit-identical — metrics and RunReport —
        // to the fault-tolerant server on an empty schedule.
        serve::ServeMetrics m = sim.run(requests);
        FleetMetrics fm;
        fm.offered = m.offered;
        fm.completed = m.completed;
        fm.rejected = m.rejected;
        fm.generated_tokens = m.generated_tokens;
        fm.routed = m.offered;
        fm.makespan_s = m.makespan_s;
        if (fm.makespan_s > 0)
            fm.completed_per_second =
                static_cast<double>(fm.completed) / fm.makespan_s;
        fm.peak_serving = 1;
        fm.energy_j = m.energyJoules();
        fm.chip_seconds = m.chip_seconds;
        fm.ttft_s.merge(m.ttft_s);
        fm.tpot_s.merge(m.tpot_s);
        fm.latency_s.merge(m.latency_s);
        fm.queue_wait_s.merge(m.queue_wait_s);
        fm.replicas.push_back(std::move(m));
        return fm;
    }

    TF_SPAN("fleet.run");
    TF_TIMER("fleet/run");

    FleetMetrics fm;
    fm.offered = static_cast<std::int64_t>(requests.size());

    const bool scaling = options_.autoscaler.enabled;
    std::optional<Autoscaler> scaler;
    if (scaling)
        scaler.emplace(options_.autoscaler, pool);
    Router router(run.policy, run.seed);

    const bool health_on = options_.health.enabled;
    const bool brownout_on = options_.brownout.enabled;
    std::vector<HealthMonitor> monitors;
    if (health_on)
        for (int i = 0; i < pool; ++i)
            monitors.emplace_back(options_.health);
    BrownoutController brownout(options_.brownout);

    std::vector<ReplicaState> states(
        static_cast<std::size_t>(pool));
    const int initial =
        scaling ? options_.autoscaler.initialReplicas() : pool;
    for (int i = 0; i < initial; ++i) {
        states[static_cast<std::size_t>(i)].active = true;
        states[static_cast<std::size_t>(i)].session =
            sim.startSession({});
    }

    std::size_t next_trace = 0;
    std::vector<serve::Request> reoffers; ///< (arrival, id) sorted
    std::vector<serve::Request> held;     ///< no eligible replica
    fault::RetryBudget budget(options_.retry);
    double next_tick = scaling ? options_.autoscaler.interval_s
                               : kInf;

    ThreadPool advance_pool(options_.threads);
    std::vector<int> indices;
    for (int i = 0; i < pool; ++i)
        indices.push_back(i);

    const auto at = [&](int i) -> ReplicaState & {
        return states[static_cast<std::size_t>(i)];
    };
    const auto eligible = [&](int i) {
        const ReplicaState &st = at(i);
        if (!(st.active && !st.draining && !st.down))
            return false;
        // An Open breaker removes the replica from routing;
        // half-open stays routable so the probe can observe
        // recovery.  Without health monitoring this is always true.
        return !health_on
            || monitors[static_cast<std::size_t>(i)].routable();
    };
    const auto servingCount = [&]() {
        int n = 0;
        for (int i = 0; i < pool; ++i)
            if (eligible(i))
                n += 1;
        return n;
    };
    const auto sessionWork = [&]() {
        for (const ReplicaState &st : states)
            if (st.session && st.session->workLeft())
                return true;
        return false;
    };

    // Event-core bookkeeping: the queue holds one entry per source
    // front — the trace front, the re-offer front, and each
    // replica's next fault boundary — re-pushed whenever its source
    // changes and validated lazily against the live state at peek
    // (see fleet/event_queue.hh).  The autoscaler tick is NOT in
    // the queue: its eligibility is a live predicate over fleet
    // state (work left, arrivals left, held + activatable), not a
    // timestamped fact, so it merges as a separate gated candidate
    // below.  All of this is inert under the legacy core.
    const bool event_core =
        options_.serve.core == serve::SimCoreKind::EventHeap;
    FleetEventQueue queue;
    const auto pushTraceFront = [&]() {
        if (event_core && next_trace < requests.size())
            queue.push({ requests[next_trace].arrival_s,
                         FleetEventKind::Arrival, -1,
                         requests[next_trace].id });
    };
    const auto pushReofferFront = [&]() {
        if (event_core && !reoffers.empty())
            queue.push({ reoffers.front().arrival_s,
                         FleetEventKind::Arrival, -1,
                         reoffers.front().id });
    };
    const auto pushFaultBoundary = [&](int i) {
        if (!event_core)
            return;
        const ReplicaState &st = at(i);
        const auto &sp = spans[static_cast<std::size_t>(i)];
        if (st.span_ix < sp.size())
            queue.push({ st.in_span ? sp[st.span_ix].end_s
                                    : sp[st.span_ix].start_s,
                         FleetEventKind::Fault, i, -1 });
    };
    // Slowdown transitions ride the Fault event kind with
    // request_id = -2 marking them apart from down-span
    // boundaries: same replica, same instant, independent cursors.
    const auto pushSlowdownBoundary = [&](int i) {
        if (!event_core)
            return;
        const ReplicaState &st = at(i);
        const auto &tl = timelines[static_cast<std::size_t>(i)];
        if (st.slow_ix < tl.size())
            queue.push({ tl[st.slow_ix].time_s,
                         FleetEventKind::Fault, i, -2 });
    };
    const auto eventValid = [&](const FleetEvent &e) {
        if (e.kind == FleetEventKind::Fault) {
            const ReplicaState &st = at(e.replica);
            if (e.request_id == -2) {
                const auto &tl =
                    timelines[static_cast<std::size_t>(e.replica)];
                // Step times strictly increase within a replica,
                // so a time match identifies the current step.
                return st.slow_ix < tl.size()
                    && e.time == tl[st.slow_ix].time_s;
            }
            const auto &sp =
                spans[static_cast<std::size_t>(e.replica)];
            if (st.span_ix >= sp.size())
                return false;
            // Boundaries strictly increase within a replica, so a
            // time match identifies the current boundary exactly.
            return e.time
                == (st.in_span ? sp[st.span_ix].end_s
                               : sp[st.span_ix].start_s);
        }
        if (next_trace < requests.size()
            && e.time == requests[next_trace].arrival_s
            && e.request_id == requests[next_trace].id)
            return true;
        return !reoffers.empty()
            && e.time == reoffers.front().arrival_s
            && e.request_id == reoffers.front().id;
    };

    /**
     * Advance every live session to the shared horizon, in
     * parallel: sessions are independent, advance() emits no
     * observability, and the shared cost tables are immutable, so
     * the result is bit-identical for any thread count.  Sheds
     * that happened inside the step are final (healthy-replica
     * overload); the audit log is cleared to bound memory.
     */
    const auto advanceAll = [&](double horizon) {
        if (event_core) {
            // advance() is a strict no-op for a session with no
            // work left or a clock already at the horizon, so only
            // the needy sessions are dispatched — and a lone needy
            // session skips the pool fan-out entirely.
            std::vector<int> needy;
            for (int i = 0; i < pool; ++i) {
                const ReplicaState &st = at(i);
                if (st.session && st.session->workLeft()
                    && st.session->now < horizon)
                    needy.push_back(i);
            }
            if (needy.size() == 1 || options_.threads == 1) {
                // One session — or a one-worker pool, where the
                // fan-out would serialize anyway and only add two
                // futex round-trips per session: advance inline.
                for (const int i : needy)
                    sim.advance(*at(i).session, horizon);
            } else if (!needy.empty()) {
                parallelMap(advance_pool, needy,
                            [&](const int &i) {
                                sim.advance(*at(i).session,
                                            horizon);
                                return 0;
                            });
            }
        } else {
            parallelMap(advance_pool, indices, [&](const int &i) {
                ReplicaState &st = at(i);
                if (st.session)
                    sim.advance(*st.session, horizon);
                return 0;
            });
        }
        for (ReplicaState &st : states)
            if (st.session)
                st.session->shed_log.clear();
    };

    /** A drained replica that finished its work releases its
     *  slot. */
    const auto settleDrains = [&]() {
        for (ReplicaState &st : states)
            if (st.draining && st.session
                && !st.session->workLeft()) {
                st.draining = false;
                st.active = false;
            }
    };

    /** Earliest unconsumed fault boundary (down-span edge or
     *  slowdown step) over all replicas. */
    const auto nextFaultBoundary = [&]() {
        double t = kInf;
        for (int i = 0; i < pool; ++i) {
            const ReplicaState &st = at(i);
            const auto &sp = spans[static_cast<std::size_t>(i)];
            if (st.span_ix < sp.size())
                t = std::min(t, st.in_span ? sp[st.span_ix].end_s
                                           : sp[st.span_ix].start_s);
            const auto &tl = timelines[static_cast<std::size_t>(i)];
            if (st.slow_ix < tl.size())
                t = std::min(t, tl[st.slow_ix].time_s);
        }
        return t;
    };

    /**
     * Pull every request off a replica that just went down and
     * hand it back to the router after backoff — or refuse it for
     * good once its retry budget is spent.  Uses the boundary time
     * (not the session's possibly-overshot clock), mirroring the
     * fault layer's convention.
     */
    const auto drainReplica = [&](int i, double t) {
        ReplicaState &st = at(i);
        if (!st.session)
            return;
        std::vector<serve::Request> out;
        for (const serve::InFlightRequest &r :
             sim.drainRunning(*st.session)) {
            fm.failover_wasted_tokens += r.generated;
            out.push_back(r.req);
        }
        for (const serve::Request &r :
             sim.drainQueued(*st.session))
            out.push_back(r);
        for (const serve::Request &req : out) {
            // The request leaves this replica's ledger; it will be
            // re-counted wherever it terminates.
            st.session->metrics.offered -= 1;
            fm.failover_drained += 1;
            const auto r = budget.retry(req, t);
            if (!r) {
                fm.failover_exhausted += 1;
                continue;
            }
            reoffers.push_back(*r);
            fm.failover_reroutes += 1;
        }
        std::sort(reoffers.begin(), reoffers.end(), arrivesBefore);
        pushReofferFront();
    };

    /** Apply every boundary up to `t`, replica-index order. */
    const auto applyFaults = [&](double t) {
        for (int i = 0; i < pool; ++i) {
            ReplicaState &st = at(i);
            const auto &sp = spans[static_cast<std::size_t>(i)];
            const std::size_t span_ix0 = st.span_ix;
            const bool in_span0 = st.in_span;
            while (st.span_ix < sp.size()) {
                if (!st.in_span && sp[st.span_ix].start_s <= t) {
                    st.in_span = true;
                    st.down = true;
                    fm.replica_downs += 1;
                    drainReplica(i, sp[st.span_ix].start_s);
                } else if (st.in_span
                           && sp[st.span_ix].end_s <= t) {
                    st.in_span = false;
                    st.down = false;
                    st.span_ix += 1;
                    fm.replica_ups += 1;
                } else {
                    break;
                }
            }
            if (st.span_ix != span_ix0 || st.in_span != in_span0)
                pushFaultBoundary(i);
            // Gray-failure steps: adopt the newest multiplier due
            // by `t`.  The replica keeps serving (no drain, no
            // routing change here) — only its session clock slows.
            const auto &tl = timelines[static_cast<std::size_t>(i)];
            const std::size_t slow_ix0 = st.slow_ix;
            while (st.slow_ix < tl.size()
                   && tl[st.slow_ix].time_s <= t) {
                st.mult = tl[st.slow_ix].multiplier;
                st.slow_ix += 1;
                fm.slowdown_transitions += 1;
            }
            if (st.slow_ix != slow_ix0) {
                pushSlowdownBoundary(i);
                // A down or draining replica keeps its session;
                // apply the pace to whatever session exists so it
                // resumes (or finishes draining) at schedule speed.
                if (st.session)
                    st.session->slowdown = st.mult;
            }
        }
    };

    /** Load views of the eligible replicas, index order. */
    const auto buildViews = [&]() {
        std::vector<ReplicaView> views;
        for (int i = 0; i < pool; ++i)
            if (eligible(i)) {
                const ReplicaState &st = at(i);
                views.push_back(
                    ReplicaView{ i, st.session->outstanding(),
                                 st.session->freeKvWords() });
            }
        return views;
    };

    /**
     * Route every due request — previously held ones first by the
     * shared (arrival, id) order, then trace arrivals and matured
     * re-offers up to `t`.  A request with no eligible replica is
     * held (original arrival preserved) until eligibility
     * reappears.
     */
    const auto routeArrivals = [&](double t) {
        std::vector<serve::Request> batch;
        batch.swap(held);
        const std::size_t trace0 = next_trace;
        while (next_trace < requests.size()
               && requests[next_trace].arrival_s <= t)
            batch.push_back(requests[next_trace++]);
        std::size_t due = 0;
        while (due < reoffers.size()
               && reoffers[due].arrival_s <= t)
            due += 1;
        batch.insert(batch.end(), reoffers.begin(),
                     reoffers.begin()
                         + static_cast<std::ptrdiff_t>(due));
        reoffers.erase(reoffers.begin(),
                       reoffers.begin()
                           + static_cast<std::ptrdiff_t>(due));
        if (next_trace != trace0)
            pushTraceFront();
        if (due > 0)
            pushReofferFront();
        std::sort(batch.begin(), batch.end(), arrivesBefore);
        for (const serve::Request &r : batch) {
            if (brownout.shouldShed(r)) {
                // Active brownout: shed the classes the options
                // name instead of queueing into the overload.
                // Terminal — counted straight into rejected.
                brownout.recordShed();
                continue;
            }
            // Views rebuild per decision: outstanding counts and
            // KV headroom change with every injection.
            const std::vector<ReplicaView> views = buildViews();
            if (views.empty()) {
                held.push_back(r);
                continue;
            }
            const int i = router.pick(views);
            ReplicaState &st = at(i);
            sim.injectRequests(*st.session, { r });
            st.session->metrics.offered += 1;
        }
    };

    /** Whether a tick could change anything (guards the loop
     *  against ticking forever on a finished or stuck fleet). */
    const auto canActivate = [&]() {
        if (servingCount() >= options_.autoscaler.maxReplicas(pool))
            return false;
        for (int i = 0; i < pool; ++i)
            if (at(i).draining || (!at(i).active && !at(i).down))
                return true;
        return false;
    };

    const auto scaleUp = [&]() {
        // Un-drain the lowest-index draining replica first (its
        // session is warm), else activate the lowest-index idle
        // non-down one.
        for (int i = 0; i < pool; ++i)
            if (at(i).draining) {
                at(i).draining = false;
                return;
            }
        for (int i = 0; i < pool; ++i) {
            ReplicaState &st = at(i);
            if (!st.active && !st.down) {
                st.active = true;
                if (!st.session) {
                    st.session = sim.startSession({});
                    // Late activation under an in-force slowdown
                    // still runs at the schedule's pace.
                    st.session->slowdown = st.mult;
                }
                return;
            }
        }
    };

    const auto scaleDown = [&]() {
        // Drain the highest-index serving replica: stop routing to
        // it, let it finish, release on settle.
        for (int i = pool - 1; i >= 0; --i)
            if (eligible(i)) {
                at(i).draining = true;
                return;
            }
    };

    /** Sample load, feed the state machine, apply the verdict. */
    const auto tick = [&](double t) {
        Histogram waits;
        for (int i = 0; i < pool; ++i) {
            if (!eligible(i))
                continue;
            const serve::ServeSession &s = *at(i).session;
            for (const serve::Request &r : s.queue)
                waits.add(t - r.arrival_s);
            for (std::size_t j = s.next; j < s.pending.size(); ++j)
                if (s.pending[j].arrival_s <= t)
                    waits.add(t - s.pending[j].arrival_s);
        }
        for (const serve::Request &r : held)
            waits.add(t - r.arrival_s);
        const int serving = servingCount();
        const auto depth = static_cast<double>(waits.count());
        const double per_serving = serving > 0
            ? depth / static_cast<double>(serving)
            : (depth > 0 ? kInf : 0.0);
        const ScaleDecision d = scaler->observe(
            per_serving, waits.percentileOr(99, 0.0), serving);
        if (d == ScaleDecision::Up)
            scaleUp();
        else if (d == ScaleDecision::Down)
            scaleDown();
    };

    /**
     * Feed every live replica's monitor one observation, replica-
     * index order: the mean per-round latency since the previous
     * update (absent when no round executed — an idle replica must
     * not look fast) and the current outstanding depth.  The state
     * machines step on these integer update counts, so the breaker
     * trajectory is a pure function of the event sequence.
     */
    const auto updateHealth = [&](double t) {
        if (!health_on)
            return;
        for (int i = 0; i < pool; ++i) {
            ReplicaState &st = at(i);
            if (!st.active || st.down || !st.session)
                continue;
            const serve::ServeSession &s = *st.session;
            const std::int64_t rounds = s.metrics.prefill_rounds
                + s.metrics.decode_rounds;
            std::optional<double> sample;
            if (rounds > st.obs_rounds) {
                sample = (s.now - st.obs_now)
                    / static_cast<double>(rounds - st.obs_rounds);
                st.obs_now = s.now;
                st.obs_rounds = rounds;
            }
            monitors[static_cast<std::size_t>(i)].observe(
                t, sample,
                static_cast<double>(s.outstanding()));
        }
    };

    /** One fleet-wide pressure observation: outstanding depth per
     *  serving replica, held requests included (they are exactly
     *  the pressure no replica is absorbing). */
    const auto updateBrownout = [&](double t) {
        if (!brownout_on)
            return;
        int serving = 0;
        double depth = static_cast<double>(held.size());
        for (int i = 0; i < pool; ++i)
            if (eligible(i)) {
                serving += 1;
                depth += static_cast<double>(
                    at(i).session->outstanding());
            }
        // With nothing serving the total depth *is* the pressure
        // (dividing by zero would poison the EWMA with inf).
        brownout.observe(t, serving > 0
                                ? depth
                                    / static_cast<double>(serving)
                                : depth);
    };

    /** Latest clock any session reached (terminal-phase horizon
     *  for monitor updates once no timed event remains). */
    const auto lastSessionClock = [&]() {
        double t = 0;
        for (const ReplicaState &st : states)
            if (st.session)
                t = std::max(t, st.session->now);
        return t;
    };

    if (event_core) {
        pushTraceFront();
        pushReofferFront();
        for (int i = 0; i < pool; ++i) {
            pushFaultBoundary(i);
            pushSlowdownBoundary(i);
        }
    }
    fm.peak_serving = servingCount();
    double last_t = 0; ///< latest finite event time processed
    // Terminal breaker pump budget: once no timed event remains,
    // held work gets this many extra monitor updates to let an
    // Open breaker cool down, half-open, and absorb it before the
    // run refuses it.  Bounded so a permanently-breached fleet
    // still terminates (the chaos harness pins this).
    int pump_left = 1024;
    while (true) {
        const bool arrivals_left =
            next_trace < requests.size() || !reoffers.empty();
        const bool swork = sessionWork();
        if (!arrivals_left && !swork && held.empty())
            break;
        // Earliest arrival-or-fault boundary.  The event core reads
        // it off the heap (sources re-arm on every front change);
        // legacy rescans both sources.  Both compute the same
        // minimum — see fleet/event_queue.hh for the argument.
        const double tAF = [&]() {
            if (event_core) {
                const auto top = queue.peek(eventValid);
                return top ? top->time : kInf;
            }
            double t = kInf;
            if (next_trace < requests.size())
                t = requests[next_trace].arrival_s;
            if (!reoffers.empty())
                t = std::min(t, reoffers.front().arrival_s);
            return std::min(t, nextFaultBoundary());
        }();
        const double tT = scaling
                && (swork || arrivals_left
                    || (!held.empty() && canActivate()))
            ? next_tick
            : kInf;
        const double t = std::min(tAF, tT);
        if (t == kInf) {
            if (swork) {
                // Nothing left to schedule: let every session run
                // its remaining work out.
                advanceAll(kInf);
                settleDrains();
                continue;
            }
            if (health_on && !held.empty() && pump_left > 0) {
                // No timed event will ever fire again, but an Open
                // breaker may be mid-cooldown: pump the monitors so
                // a recovered replica can half-open and take the
                // held work before it is refused for good.  Routed
                // work revives the ordinary loop on the next pass.
                pump_left -= 1;
                const double tp =
                    std::max(last_t, lastSessionClock());
                last_t = tp;
                updateHealth(tp);
                updateBrownout(tp);
                routeArrivals(tp);
                continue;
            }
            // Only held requests remain and nothing can ever make
            // a replica eligible again: refuse them below.
            break;
        }
        last_t = std::max(last_t, t);
        advanceAll(t);
        settleDrains();
        applyFaults(t);
        updateHealth(t);
        updateBrownout(t);
        routeArrivals(t);
        if (scaling && t >= next_tick) {
            tick(t);
            while (next_tick <= t)
                next_tick += options_.autoscaler.interval_s;
            // A scale-up at the tick may have created eligibility
            // for requests held a moment ago.
            routeArrivals(t);
        }
        fm.peak_serving =
            std::max(fm.peak_serving,
                     static_cast<std::int64_t>(servingCount()));
    }
    fm.held_rejected = static_cast<std::int64_t>(held.size());
    held.clear();

    // Finish every replica session inside its own registry, then
    // fold each one into the caller's under its replica prefix —
    // always in replica-index order, so the merged registry (and
    // any RunReport over it) is bit-identical per run.
    for (int i = 0; i < pool; ++i) {
        ReplicaState &st = at(i);
        serve::ServeMetrics m;
        if (st.session) {
            obs::Registry local;
            {
                obs::ScopedRegistry scope(local);
                m = sim.finishSession(*st.session);
            }
            obs::currentRegistry().mergePrefixed(
                local.snapshot(),
                "fleet/replica." + std::to_string(i) + ".");
        }
        tf_assert(m.completed + m.rejected == m.offered,
                  "replica ", i, " ledger leak: completed ",
                  m.completed, " + rejected ", m.rejected,
                  " != offered ", m.offered);
        fm.completed += m.completed;
        fm.rejected += m.rejected;
        fm.generated_tokens += m.generated_tokens;
        fm.energy_j += m.energyJoules();
        fm.chip_seconds += m.chip_seconds;
        fm.makespan_s = std::max(fm.makespan_s, m.makespan_s);
        fm.ttft_s.merge(m.ttft_s);
        fm.tpot_s.merge(m.tpot_s);
        fm.latency_s.merge(m.latency_s);
        fm.queue_wait_s.merge(m.queue_wait_s);
        fm.replicas.push_back(std::move(m));
    }
    // Close dangling health/brownout windows at the last clock any
    // part of the run reached, then fold the detector ledgers in.
    const double fin_t = std::max(fm.makespan_s, last_t);
    if (health_on)
        for (int i = 0; i < pool; ++i) {
            HealthMonitor &mon =
                monitors[static_cast<std::size_t>(i)];
            mon.finish(fin_t);
            fm.breaker_opens += mon.opens();
            fm.breaker_reopens += mon.reopens();
            fm.breaker_closes += mon.closes();
            for (const BreakerWindow &w : mon.windows())
                fm.breaker_open_s += w.durationSeconds();
        }
    if (brownout_on) {
        brownout.finish(fin_t);
        fm.brownout_activations = brownout.activations();
        fm.brownout_sheds = brownout.sheds();
        for (const BrownoutWindow &w : brownout.windows())
            fm.brownout_s += w.durationSeconds();
    }
    fm.rejected += fm.failover_exhausted + fm.held_rejected
        + fm.brownout_sheds;
    fm.routed = router.decisions();
    if (scaler) {
        fm.autoscaler_ticks = scaler->ticks();
        fm.scale_ups = scaler->scaleUps();
        fm.scale_downs = scaler->scaleDowns();
    }
    if (fm.makespan_s > 0)
        fm.completed_per_second =
            static_cast<double>(fm.completed) / fm.makespan_s;
    tf_assert(fm.completed + fm.rejected == fm.offered,
              "fleet accounting leak: completed ", fm.completed,
              " + rejected ", fm.rejected, " != offered ",
              fm.offered);

    TF_COUNT("fleet/replicas", pool);
    TF_COUNT("fleet/routed", fm.routed);
    TF_COUNT("fleet/held_rejected", fm.held_rejected);
    TF_COUNT("fleet/replica_downs", fm.replica_downs);
    TF_COUNT("fleet/replica_ups", fm.replica_ups);
    TF_COUNT("fleet/failover.drained", fm.failover_drained);
    TF_COUNT("fleet/failover.reroutes", fm.failover_reroutes);
    TF_COUNT("fleet/failover.exhausted", fm.failover_exhausted);
    TF_COUNT("fleet/failover.wasted_tokens",
             fm.failover_wasted_tokens);
    TF_COUNT("fleet/autoscaler.ticks", fm.autoscaler_ticks);
    TF_COUNT("fleet/autoscaler.scale_ups", fm.scale_ups);
    TF_COUNT("fleet/autoscaler.scale_downs", fm.scale_downs);
    // Gray-failure instrumentation only exists when the feature
    // fired or was enabled: fault-free runs keep the exact counter
    // set (and golden RunReports) of the pre-slowdown fleet.
    if (fm.slowdown_transitions > 0)
        TF_COUNT("fleet/slowdown.transitions",
                 fm.slowdown_transitions);
    if (health_on) {
        TF_COUNT("fleet/breaker.opens", fm.breaker_opens);
        TF_COUNT("fleet/breaker.reopens", fm.breaker_reopens);
        TF_COUNT("fleet/breaker.closes", fm.breaker_closes);
        TF_GAUGE_ADD("fleet/breaker.open_s", fm.breaker_open_s);
        for (int i = 0; i < pool; ++i) {
            const HealthMonitor &mon =
                monitors[static_cast<std::size_t>(i)];
            if (mon.opens() + mon.reopens() == 0)
                continue;
            TF_COUNT(obs::metricKey("fleet/breaker.replica", i,
                                    "opens"),
                     mon.opens() + mon.reopens());
            double open_s = 0;
            for (const BreakerWindow &w : mon.windows())
                open_s += w.durationSeconds();
            TF_GAUGE_ADD(obs::metricKey("fleet/breaker.replica",
                                        i, "open_s"),
                         open_s);
        }
    }
    if (brownout_on) {
        TF_COUNT("fleet/brownout.activations",
                 fm.brownout_activations);
        TF_COUNT("fleet/brownout.sheds", fm.brownout_sheds);
        TF_GAUGE_ADD("fleet/brownout.active_s", fm.brownout_s);
        const auto &ws = brownout.windows();
        for (std::size_t w = 0; w < ws.size(); ++w) {
            TF_COUNT(obs::metricKey("fleet/brownout.window",
                                    static_cast<int>(w), "sheds"),
                     ws[w].sheds);
            TF_GAUGE_ADD(
                obs::metricKey("fleet/brownout.window",
                               static_cast<int>(w), "duration_s"),
                ws[w].durationSeconds());
        }
    }
    TF_GAUGE_MAX("fleet/peak_serving",
                 static_cast<double>(fm.peak_serving));
    TF_GAUGE_ADD("fleet/makespan_s", fm.makespan_s);
    // Fleet totals; the per-replica split is already in the merged
    // registry under fleet/replica.<i>.serve/energy.*.
    TF_GAUGE_ADD("fleet/energy.total_j", fm.energy_j);
    TF_GAUGE_ADD("fleet/chip_seconds", fm.chip_seconds);
    return fm;
}

} // namespace transfusion::fleet
