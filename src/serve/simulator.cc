/**
 * @file
 * Implementation of the serving event loop.
 */

#include "simulator.hh"

#include <algorithm>
#include <limits>
#include <queue>
#include <sstream>
#include <utility>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/table.hh"
#include "costmodel/cache_key.hh"
#include "costmodel/cost_table_cache.hh"
#include "obs/fan_out.hh"
#include "obs/obs.hh"

namespace transfusion::serve
{

namespace
{

constexpr double kNoHorizon =
    std::numeric_limits<double>::infinity();

/**
 * Calibrate (or fetch memoized) cost tables for the arch-based
 * constructor.  The key fingerprints every construction input; the
 * cache replays the calibration's registry deltas on a hit, so a
 * cached simulator is observably identical to a fresh one.
 */
ServeCostModel
calibratedCostModel(const arch::ArchConfig &arch,
                    const model::TransformerConfig &cfg,
                    const WorkloadOptions &workload,
                    const ServeOptions &options)
{
    costmodel::KeyBuilder k;
    k.add("kind", "serve-cost-model");
    appendCacheKey(k, arch);
    appendCacheKey(k, cfg);
    k.add("strategy", schedule::toString(options.strategy));
    k.add("max_batch", options.max_batch);
    k.add("max_context", workload.maxContext());
    k.add("max_prompt", workload.prompt.hi);
    appendCacheKey(k, options.cost);
    const auto table =
        costmodel::CostTableCache::instance()
            .getOrBuild<ServeCostModel>(k.str(), [&] {
                return ServeCostModel(
                    arch, cfg, options.strategy,
                    options.max_batch, workload.maxContext(),
                    workload.prompt.hi, options.cost);
            });
    return *table;
}

} // namespace

const char *
toString(SimCoreKind core)
{
    switch (core) {
    case SimCoreKind::Legacy:
        return "legacy";
    case SimCoreKind::EventHeap:
        return "event-heap";
    }
    tf_panic("unknown SimCoreKind ", static_cast<int>(core));
}

std::string
ServeMetrics::summary() const
{
    // Empty distributions (a fully shed trace, or a degraded-mode
    // window that completed nothing) render as "-" rather than
    // calling Histogram::percentile(), which is fatal on empty.
    const auto p = [](const Histogram &h, double q) {
        return h.empty() ? std::string("-")
                         : formatSeconds(h.percentileOr(q, 0.0));
    };
    std::ostringstream os;
    os << "offered=" << offered << ", completed=" << completed
       << ", rejected=" << rejected << ", tok/s="
       << (makespan_s > 0 ? Table::cell(tokens_per_second, 1)
                          : std::string("-"))
       << ", ttft_p50=" << p(ttft_s, 50) << ", lat_p99="
       << p(latency_s, 99) << ", wait_p99="
       << p(queue_wait_s, 99);
    return os.str();
}

ServeSimulator::ServeSimulator(arch::ArchConfig arch,
                               model::TransformerConfig cfg,
                               const WorkloadOptions &workload,
                               ServeOptions options)
    : ServeSimulator(
          calibratedCostModel(arch, cfg, workload, options),
          kvWordsPerToken(cfg),
          kvCapacityWords(arch, cfg, options.dram_capacity_bytes),
          workload, options)
{
}

ServeSimulator::ServeSimulator(ServeCostModel cost,
                               double words_per_token,
                               double capacity_words,
                               const WorkloadOptions &workload,
                               ServeOptions options)
    : options_(options), cost_(std::move(cost)),
      words_per_token_(words_per_token),
      capacity_words_(capacity_words)
{
    workload.validate();
    if (options_.strategy != cost_.strategy())
        tf_fatal("options.strategy (",
                 schedule::toString(options_.strategy),
                 ") does not match the cost model's (",
                 schedule::toString(cost_.strategy()), ")");
    if (options_.max_batch <= 0)
        tf_fatal("max_batch must be positive, got ",
                 options_.max_batch);
    if (options_.max_queue <= 0)
        tf_fatal("max_queue must be positive, got ",
                 options_.max_queue);
    if (options_.chips <= 0)
        tf_fatal("chips must be positive, got ", options_.chips);
    if (!(words_per_token_ > 0))
        tf_fatal("words_per_token must be positive, got ",
                 words_per_token_);
    if (!(capacity_words_ > 0))
        tf_fatal("kv capacity must be positive, got ",
                 capacity_words_);
}

ServeSession
ServeSimulator::startSession(std::vector<Request> requests) const
{
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const Request &r = requests[i];
        if (r.prompt_len <= 0 || r.output_len <= 0)
            tf_fatal("bad request: ", r.toString());
        if (i > 0 && r.arrival_s < requests[i - 1].arrival_s)
            tf_fatal("requests must be sorted by arrival time");
    }
    ServeSession s(capacity_words_);
    s.pending = std::move(requests);
    s.metrics.offered =
        static_cast<std::int64_t>(s.pending.size());
    s.metrics.kv_capacity_words = capacity_words_;
    return s;
}

void
ServeSimulator::advance(ServeSession &s, double horizon_s) const
{
    if (!(s.slowdown >= 1.0))
        tf_fatal("session slowdown must be >= 1, got ",
                 s.slowdown);
    if (options_.core == SimCoreKind::Legacy)
        advanceLegacy(s, horizon_s);
    else
        advanceEvent(s, horizon_s);
}

void
ServeSimulator::advanceLegacy(ServeSession &s,
                              double horizon_s) const
{
    ServeMetrics &m = s.metrics;

    const auto reservation = [&](const Request &r) {
        return words_per_token_
            * static_cast<double>(r.peakContext());
    };
    const auto finish = [&](const InFlightRequest &r, double now) {
        m.completed += 1;
        m.latency_s.add(now - r.req.arrival_s);
        if (r.req.output_len > 1)
            m.tpot_s.add((now - r.first_token_s)
                         / static_cast<double>(r.req.output_len
                                               - 1));
        s.cache.release(reservation(r.req));
    };

    while (s.workLeft()) {
        // Horizon check at the round boundary only: the caller's
        // world change (a fault, a replan) lands between rounds,
        // never mid-round.  With horizon_s = +inf this never fires
        // and the loop is the original run() loop.
        if (s.now >= horizon_s)
            return;

        // Pull every arrival up to the current clock into the
        // bounded queue; overflow is shed immediately.
        while (s.next < s.pending.size()
               && s.pending[s.next].arrival_s <= s.now) {
            if (static_cast<std::int64_t>(s.queue.size())
                >= options_.max_queue) {
                m.rejected += 1;
                s.shed_log.push_back(
                    { s.pending[s.next], s.now });
            } else {
                s.queue.push_back(s.pending[s.next]);
                m.peak_queue = std::max(
                    m.peak_queue,
                    static_cast<std::int64_t>(s.queue.size()));
            }
            ++s.next;
        }

        // FIFO admission: the head joins as soon as a decode lane
        // and its peak-context KV reservation are free.  A head
        // that could never fit even on an idle system is rejected;
        // a head that merely does not fit *now* blocks the queue
        // (no overtaking, so admission order is deterministic and
        // starvation-free).
        std::vector<InFlightRequest> admitted;
        while (!s.queue.empty()
               && static_cast<std::int64_t>(s.running.size()
                                            + admitted.size())
                   < options_.max_batch) {
            const Request &head = s.queue.front();
            const double words = reservation(head);
            if (!s.cache.fitsAlone(words)) {
                m.rejected += 1;
                s.shed_log.push_back({ head, s.now });
                s.queue.pop_front();
                continue;
            }
            if (!s.cache.tryReserve(words))
                break;
            m.queue_wait_s.add(s.now - head.arrival_s);
            InFlightRequest r;
            r.req = head;
            admitted.push_back(r);
            s.queue.pop_front();
        }

        if (!admitted.empty()) {
            // Prefill round: newly admitted prompts run back to
            // back (prefill is compute-bound at batch 1, so serial
            // pricing is the conservative model); each produces its
            // request's first token.
            double dt = 0;
            for (const InFlightRequest &r : admitted) {
                dt += cost_.prefillSeconds(r.req.prompt_len);
                m.prefill_energy_j +=
                    cost_.prefillJoules(r.req.prompt_len);
            }
            s.now += dt * s.slowdown;
            m.prefill_rounds += 1;
            for (InFlightRequest &r : admitted) {
                r.first_token_s = s.now;
                r.generated = 1;
                m.generated_tokens += 1;
                m.ttft_s.add(s.now - r.req.arrival_s);
                if (r.generated >= r.req.output_len)
                    finish(r, s.now);
                else
                    s.running.push_back(r);
            }
            m.peak_running = std::max(
                m.peak_running,
                static_cast<std::int64_t>(s.running.size()));
            continue;
        }

        if (!s.running.empty()) {
            // Decode round: every running request emits one token;
            // the step is priced at the batch's mean cache length
            // (exact for the affine-in-cache-length cost model).
            double ctx = 0;
            for (const InFlightRequest &r : s.running)
                ctx += static_cast<double>(r.req.prompt_len
                                           + r.generated);
            const auto batch =
                static_cast<std::int64_t>(s.running.size());
            s.now += cost_.decodeStepSecondsFullScan(
                           batch, ctx / static_cast<double>(batch))
                * s.slowdown;
            // Same (batch, mean) arguments price the step's energy
            // off the joules table — decodeStepJoules is the one
            // lookup both cores share, so metered energy is
            // core-invariant.
            m.decode_energy_j += cost_.decodeStepJoules(
                batch, ctx / static_cast<double>(batch));
            m.decode_rounds += 1;
            std::vector<InFlightRequest> still;
            still.reserve(s.running.size());
            for (InFlightRequest &r : s.running) {
                r.generated += 1;
                m.generated_tokens += 1;
                if (r.generated >= r.req.output_len)
                    finish(r, s.now);
                else
                    still.push_back(r);
            }
            s.running = std::move(still);
            continue;
        }

        // Idle: jump the clock to the next arrival (capped at the
        // horizon so a fault epoch never swallows arrivals that
        // belong to the next one).
        if (s.next < s.pending.size()) {
            const double arrival = s.pending[s.next].arrival_s;
            if (arrival >= horizon_s) {
                s.now = std::max(s.now, horizon_s);
                return;
            }
            s.now = std::max(s.now, arrival);
            continue;
        }
        // Nothing admitted, running, or arriving.  If the whole
        // round's progress was rejections the queue is empty and
        // the loop condition ends the replay; a still-populated
        // queue would spin forever, so fail loud (defensive:
        // admission always makes progress when nothing is running).
        if (s.queue.empty())
            continue;
        tf_fatal("serve loop wedged with ", s.queue.size(),
                 " queued requests (completed ", m.completed,
                 ", rejected ", m.rejected, " of ", m.offered,
                 ")");
    }
}

void
ServeSimulator::advanceEvent(ServeSession &s,
                             double horizon_s) const
{
    ServeMetrics &m = s.metrics;

    // Transient event-state, rebuilt from the session's canonical
    // `running` vector on entry and materialized back on every
    // exit.  The session struct itself stays plain round-boundary
    // data, so drains/injections between epochs need no knowledge
    // of the core that ran the last epoch.  This rebuild is also
    // what re-keys the finish heap across slowdown transitions: a
    // caller changing `session.slowdown` does so between advance()
    // calls, the heap is reconstructed from `running` on the next
    // entry, and finish *rounds* (the heap key) are invariant to
    // per-round duration anyway — only the clock increments scale.
    //
    // Slot order is admission order (legacy `running` order).  A
    // request admitted with `g` tokens already generated while
    // `m.decode_rounds` rounds have run finishes in the round that
    // brings decode_rounds to m.decode_rounds + (output_len - g):
    // every decode round hands exactly one token to every running
    // request and prefill rounds never touch them.
    struct Slot
    {
        Request req;
        double first_token_s = 0;
        std::int64_t finish_round = 0;
        bool alive = true;
    };
    std::vector<Slot> slots;
    slots.reserve(s.running.size());
    // Min-heap of (finish_round, slot index): pops finishers of one
    // round in admission order — exactly the order the legacy
    // compaction walks them.
    using HeapEntry = std::pair<std::int64_t, std::size_t>;
    std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                        std::greater<HeapEntry>>
        finishers;
    // Sum of (prompt_len + generated) over live slots.  Integer
    // sums below 2^53 are exact in doubles regardless of
    // association, so tracking the sum incrementally as int64 is
    // bit-identical to the legacy per-round double accumulation.
    std::int64_t ctx_active = 0;
    std::int64_t alive = 0;

    for (const InFlightRequest &r : s.running) {
        Slot slot;
        slot.req = r.req;
        slot.first_token_s = r.first_token_s;
        slot.finish_round =
            m.decode_rounds + (r.req.output_len - r.generated);
        ctx_active += r.req.prompt_len + r.generated;
        finishers.emplace(slot.finish_round, slots.size());
        slots.push_back(std::move(slot));
        alive += 1;
    }
    s.running.clear();

    const auto reservation = [&](const Request &r) {
        return words_per_token_
            * static_cast<double>(r.peakContext());
    };
    const auto finish = [&](const Request &req,
                            double first_token_s, double now) {
        m.completed += 1;
        m.latency_s.add(now - req.arrival_s);
        if (req.output_len > 1)
            m.tpot_s.add((now - first_token_s)
                         / static_cast<double>(req.output_len
                                               - 1));
        s.cache.release(reservation(req));
    };
    // Rebuild `running` for the caller: live slots in admission
    // order, each with `generated` recovered from its remaining
    // rounds (finish_round - decode_rounds more tokens to go).
    const auto materialize = [&]() {
        for (const Slot &slot : slots) {
            if (!slot.alive)
                continue;
            InFlightRequest r;
            r.req = slot.req;
            r.first_token_s = slot.first_token_s;
            r.generated = slot.req.output_len
                - (slot.finish_round - m.decode_rounds);
            s.running.push_back(r);
        }
    };

    while (s.next < s.pending.size() || !s.queue.empty()
           || alive > 0) {
        if (s.now >= horizon_s) {
            materialize();
            return;
        }

        // Arrival pull: verbatim legacy.
        while (s.next < s.pending.size()
               && s.pending[s.next].arrival_s <= s.now) {
            if (static_cast<std::int64_t>(s.queue.size())
                >= options_.max_queue) {
                m.rejected += 1;
                s.shed_log.push_back(
                    { s.pending[s.next], s.now });
            } else {
                s.queue.push_back(s.pending[s.next]);
                m.peak_queue = std::max(
                    m.peak_queue,
                    static_cast<std::int64_t>(s.queue.size()));
            }
            ++s.next;
        }

        // FIFO admission: verbatim legacy, with `alive` standing in
        // for running.size().
        std::vector<InFlightRequest> admitted;
        while (!s.queue.empty()
               && alive + static_cast<std::int64_t>(
                      admitted.size())
                   < options_.max_batch) {
            const Request &head = s.queue.front();
            const double words = reservation(head);
            if (!s.cache.fitsAlone(words)) {
                m.rejected += 1;
                s.shed_log.push_back({ head, s.now });
                s.queue.pop_front();
                continue;
            }
            if (!s.cache.tryReserve(words))
                break;
            m.queue_wait_s.add(s.now - head.arrival_s);
            InFlightRequest r;
            r.req = head;
            admitted.push_back(r);
            s.queue.pop_front();
        }

        if (!admitted.empty()) {
            // Prefill round: pricing and per-request metric order
            // verbatim legacy; survivors enter the finish heap
            // instead of the scan vector.
            double dt = 0;
            for (const InFlightRequest &r : admitted) {
                dt += cost_.prefillSeconds(r.req.prompt_len);
                m.prefill_energy_j +=
                    cost_.prefillJoules(r.req.prompt_len);
            }
            s.now += dt * s.slowdown;
            m.prefill_rounds += 1;
            for (InFlightRequest &r : admitted) {
                r.first_token_s = s.now;
                r.generated = 1;
                m.generated_tokens += 1;
                m.ttft_s.add(s.now - r.req.arrival_s);
                if (r.generated >= r.req.output_len) {
                    finish(r.req, r.first_token_s, s.now);
                } else {
                    Slot slot;
                    slot.req = r.req;
                    slot.first_token_s = r.first_token_s;
                    slot.finish_round = m.decode_rounds
                        + (r.req.output_len - r.generated);
                    ctx_active +=
                        slot.req.prompt_len + r.generated;
                    finishers.emplace(slot.finish_round,
                                      slots.size());
                    slots.push_back(std::move(slot));
                    alive += 1;
                }
            }
            m.peak_running = std::max(m.peak_running, alive);
            continue;
        }

        if (alive > 0) {
            // Decode round, event form: the batch context sum and
            // the finisher set are already known, so the round is
            // O(1) plus O(log n) per finisher.
            const std::int64_t batch = alive;
            s.now += cost_.decodeStepSeconds(
                           batch,
                           static_cast<double>(ctx_active)
                               / static_cast<double>(batch))
                * s.slowdown;
            m.decode_energy_j += cost_.decodeStepJoules(
                batch,
                static_cast<double>(ctx_active)
                    / static_cast<double>(batch));
            m.decode_rounds += 1;
            m.generated_tokens += batch;
            // Every running request gained one token; finishers
            // then leave with their full context.
            ctx_active += batch;
            while (!finishers.empty()
                   && finishers.top().first == m.decode_rounds) {
                const std::size_t ix = finishers.top().second;
                finishers.pop();
                Slot &slot = slots[ix];
                finish(slot.req, slot.first_token_s, s.now);
                ctx_active -=
                    slot.req.prompt_len + slot.req.output_len;
                slot.alive = false;
                alive -= 1;
            }
            continue;
        }

        // Idle: verbatim legacy.
        if (s.next < s.pending.size()) {
            const double arrival = s.pending[s.next].arrival_s;
            if (arrival >= horizon_s) {
                s.now = std::max(s.now, horizon_s);
                materialize();
                return;
            }
            s.now = std::max(s.now, arrival);
            continue;
        }
        if (s.queue.empty())
            continue;
        materialize();
        tf_fatal("serve loop wedged with ", s.queue.size(),
                 " queued requests (completed ", m.completed,
                 ", rejected ", m.rejected, " of ", m.offered,
                 ")");
    }
    materialize();
}

std::vector<InFlightRequest>
ServeSimulator::drainRunning(ServeSession &s) const
{
    for (const InFlightRequest &r : s.running)
        s.cache.release(words_per_token_
                        * static_cast<double>(
                            r.req.peakContext()));
    std::vector<InFlightRequest> drained = std::move(s.running);
    s.running.clear();
    return drained;
}

std::vector<Request>
ServeSimulator::drainQueued(ServeSession &s) const
{
    std::vector<Request> drained;
    drained.reserve(s.queue.size()
                    + (s.pending.size() - s.next));
    for (const Request &r : s.queue)
        drained.push_back(r);
    s.queue.clear();
    for (std::size_t i = s.next; i < s.pending.size(); ++i)
        drained.push_back(s.pending[i]);
    s.pending.resize(s.next);
    return drained;
}

void
ServeSimulator::injectRequests(ServeSession &s,
                               std::vector<Request> arrivals) const
{
    if (arrivals.empty())
        return;
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        const Request &r = arrivals[i];
        if (r.prompt_len <= 0 || r.output_len <= 0)
            tf_fatal("bad injected request: ", r.toString());
        if (i > 0 && r.arrival_s < arrivals[i - 1].arrival_s)
            tf_fatal("injected requests must be sorted by "
                     "arrival time");
    }
    const auto mid = static_cast<std::ptrdiff_t>(s.pending.size());
    s.pending.insert(s.pending.end(), arrivals.begin(),
                     arrivals.end());
    // Keep the unconsumed tail sorted; the consumed prefix
    // [0, next) is history and never re-read.
    std::inplace_merge(
        s.pending.begin()
            + static_cast<std::ptrdiff_t>(s.next),
        s.pending.begin() + mid, s.pending.end(),
        [](const Request &a, const Request &b) {
            return a.arrival_s < b.arrival_s;
        });
}

ServeMetrics
ServeSimulator::finishSession(ServeSession &s) const
{
    ServeMetrics &m = s.metrics;
    m.peak_reserved_words = s.cache.peakReservedWords();
    m.makespan_s = s.now;
    if (m.makespan_s > 0)
        m.tokens_per_second =
            static_cast<double>(m.generated_tokens)
            / m.makespan_s;
    m.chip_seconds =
        static_cast<double>(options_.chips) * m.makespan_s;

    // Replay attribution, recorded once per run on the replaying
    // thread so runScenarios' per-task registries capture it.  At
    // loop exit every offered request was completed or rejected, so
    // admissions == completed; each admitted request produced its
    // first token in a prefill round, so the decode rounds emitted
    // the remaining tokens (their summed batch occupancy).
    TF_COUNT("serve/replays", 1);
    TF_COUNT("serve/offered", m.offered);
    TF_COUNT("serve/admissions", m.completed);
    TF_COUNT("serve/sheds", m.rejected);
    TF_COUNT("serve/generated_tokens", m.generated_tokens);
    TF_COUNT("serve/prefill_rounds", m.prefill_rounds);
    TF_COUNT("serve/decode_rounds", m.decode_rounds);
    TF_COUNT("serve/decode_batch_sum",
             m.generated_tokens - m.completed);
    TF_GAUGE_MAX("serve/batch_occupancy",
                 static_cast<double>(m.peak_running));
    TF_GAUGE_MAX("serve/queue_depth",
                 static_cast<double>(m.peak_queue));
    TF_GAUGE_MAX("serve/kv_reserved_words", m.peak_reserved_words);
    TF_GAUGE_ADD("serve/makespan_s", m.makespan_s);
    TF_GAUGE_ADD("serve/energy.prefill_j", m.prefill_energy_j);
    TF_GAUGE_ADD("serve/energy.decode_j", m.decode_energy_j);
    TF_GAUGE_ADD("serve/energy.total_j", m.energyJoules());
    TF_GAUGE_ADD("serve/chip_seconds", m.chip_seconds);
    return std::move(m);
}

ServeMetrics
ServeSimulator::run(const std::vector<Request> &requests) const
{
    TF_SPAN("serve.run");
    TF_TIMER("serve/run");
    ServeSession session = startSession(requests);
    advance(session, kNoHorizon);
    return finishSession(session);
}

std::vector<ServeMetrics>
runScenarios(const ServeSimulator &sim,
             const std::vector<ServeScenario> &scenarios,
             int threads)
{
    return obs::fanOut(threads, scenarios,
                       [&sim](const ServeScenario &s) {
                           return sim.run(
                               generateWorkload(s.workload, s.seed));
                       });
}

} // namespace transfusion::serve
