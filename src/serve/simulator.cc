/**
 * @file
 * Implementation of the serving event loop.
 */

#include "simulator.hh"

#include <algorithm>
#include <functional>
#include <limits>
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

/** The pending trace's sort order. */
bool
arrivesEarlier(const Request &a, const Request &b)
{
    return a.arrival_s < b.arrival_s;
}

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
    ServeMetrics &m = s.metrics;

    // The running batch stays in the session's event form between
    // calls (slots in admission order, finish heap, context sum),
    // so a call costs only the rounds it runs.  A caller changing
    // `session.slowdown` between calls needs no re-keying: finish
    // *rounds* (the heap key) are invariant to per-round duration,
    // only the clock increments scale.
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

    std::vector<Request> admitted;
    while (s.workLeft()) {
        // Horizon check at the round boundary only: the caller's
        // world change (a fault, a replan) lands between rounds,
        // never mid-round.  With horizon_s = +inf this never fires.
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
        admitted.clear();
        while (!s.queue.empty()
               && s.live_ + static_cast<std::int64_t>(
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
            admitted.push_back(head);
            s.queue.pop_front();
        }

        if (!admitted.empty()) {
            // Prefill round: newly admitted prompts run back to
            // back (prefill is compute-bound at batch 1, so serial
            // pricing is the conservative model); each produces its
            // request's first token, and the unfinished ones enter
            // the finish heap.
            double dt = 0;
            for (const Request &r : admitted) {
                dt += cost_.prefillSeconds(r.prompt_len);
                m.prefill_energy_j +=
                    cost_.prefillJoules(r.prompt_len);
            }
            s.now += dt * s.slowdown;
            m.prefill_rounds += 1;
            for (const Request &r : admitted) {
                m.generated_tokens += 1;
                m.ttft_s.add(s.now - r.arrival_s);
                if (r.output_len <= 1)
                    finish(r, s.now, s.now);
                else
                    s.pushRunning(r, s.now);
            }
            m.peak_running = std::max(m.peak_running, s.live_);
            continue;
        }

        if (s.live_ > 0) {
            // Decode round: every running request emits one token;
            // the step is priced at the batch's mean cache length
            // (exact for the affine-in-cache-length cost model).
            // The context sum and the finisher set are already
            // known, so the round is O(1) plus O(log n) per
            // finisher.
            const std::int64_t batch = s.live_;
            const StepCost step = cost_.decodeStep(
                batch, static_cast<double>(s.ctx_active_)
                           / static_cast<double>(batch));
            s.now += step.seconds * s.slowdown;
            m.decode_energy_j += step.joules;
            m.decode_rounds += 1;
            m.generated_tokens += batch;
            // Every running request gained one token; finishers
            // then leave with their full context.
            s.ctx_active_ += batch;
            auto &heap = s.finishers_;
            while (!heap.empty()
                   && heap.front().first == m.decode_rounds) {
                std::pop_heap(heap.begin(), heap.end(),
                              std::greater<>());
                ServeSession::Slot &slot =
                    s.slots_[heap.back().second];
                heap.pop_back();
                finish(slot.req, slot.first_token_s, s.now);
                s.ctx_active_ -=
                    slot.req.prompt_len + slot.req.output_len;
                slot.alive = false;
                s.live_ -= 1;
            }
            // Compact once dead slots outnumber live ones:
            // amortized O(1) per finisher, and the slot vector stays
            // bounded by twice the batch.
            if (static_cast<std::int64_t>(s.slots_.size())
                > 2 * s.live_)
                s.compactSlots();
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
ServeSession::pushRunning(const Request &req, double first_token_s)
{
    Slot slot;
    slot.req = req;
    slot.first_token_s = first_token_s;
    slot.finish_round = metrics.decode_rounds + (req.output_len - 1);
    ctx_active_ += req.prompt_len + 1;
    finishers_.emplace_back(slot.finish_round, slots_.size());
    std::push_heap(finishers_.begin(), finishers_.end(),
                   std::greater<>());
    slots_.push_back(slot);
    live_ += 1;
}

void
ServeSession::compactSlots()
{
    slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                                [](const Slot &slot) {
                                    return !slot.alive;
                                }),
                 slots_.end());
    // The heap holds exactly the live slots.  Re-keying them by
    // their new (monotonically remapped) indices keeps every key
    // comparison as it was, so the pop order is unchanged.
    finishers_.clear();
    for (std::size_t i = 0; i < slots_.size(); ++i)
        finishers_.emplace_back(slots_[i].finish_round, i);
    std::make_heap(finishers_.begin(), finishers_.end(),
                   std::greater<>());
}

std::vector<InFlightRequest>
ServeSimulator::drainRunning(ServeSession &s) const
{
    std::vector<InFlightRequest> drained;
    drained.reserve(static_cast<std::size_t>(s.live_));
    for (const ServeSession::Slot &slot : s.slots_) {
        if (!slot.alive)
            continue;
        InFlightRequest r;
        r.req = slot.req;
        r.first_token_s = slot.first_token_s;
        r.generated = slot.req.output_len
            - (slot.finish_round - s.metrics.decode_rounds);
        drained.push_back(r);
        s.cache.release(words_per_token_
                        * static_cast<double>(r.req.peakContext()));
    }
    s.slots_.clear();
    s.finishers_.clear();
    s.ctx_active_ = 0;
    s.live_ = 0;
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
    std::inplace_merge(s.pending.begin()
                           + static_cast<std::ptrdiff_t>(s.next),
                       s.pending.begin() + mid, s.pending.end(),
                       arrivesEarlier);
}

void
ServeSimulator::injectRequest(ServeSession &s,
                              const Request &arrival) const
{
    if (arrival.prompt_len <= 0 || arrival.output_len <= 0)
        tf_fatal("bad injected request: ", arrival.toString());
    // Where the stable merge would put it: after every tail
    // request that does not arrive later.
    s.pending.insert(
        std::upper_bound(s.pending.begin()
                             + static_cast<std::ptrdiff_t>(s.next),
                         s.pending.end(), arrival, arrivesEarlier),
        arrival);
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
