/**
 * @file
 * Implementation of the replay-ledger comparator.
 */

#include "metrics_diff.hh"

#include <iomanip>
#include <sstream>

namespace transfusion::bench
{

namespace
{

/** Takes copies: a percentile query sorts the samples in place, so
 *  querying the caller's histograms would change what a later
 *  sum() — which adds samples in storage order — compares. */
void
diffHistogram(std::ostream &os, const std::string &what, Histogram a,
              Histogram b)
{
    if (a.count() != b.count()) {
        os << what << " count " << a.count() << " vs " << b.count()
           << "; ";
        return;
    }
    // Before any percentile query: the sums then depend on the order
    // the samples were recorded in, not just on the sample sets.
    if (a.sum() != b.sum())
        os << what << " sum " << a.sum() << " vs " << b.sum()
           << "; ";
    for (const double p : { 0.0, 25.0, 50.0, 75.0, 99.0, 100.0 })
        if (a.percentileOr(p, -1.0) != b.percentileOr(p, -1.0))
            os << what << " p" << p << " "
               << a.percentileOr(p, -1.0) << " vs "
               << b.percentileOr(p, -1.0) << "; ";
}

#define TF_DIFF_FIELD(f)                                             \
    if (a.f != b.f)                                                  \
        os << prefix << #f << " " << a.f << " vs " << b.f << "; ";

void
diffServe(std::ostream &os, const std::string &prefix,
          const serve::ServeMetrics &a, const serve::ServeMetrics &b)
{
    TF_DIFF_FIELD(offered)
    TF_DIFF_FIELD(completed)
    TF_DIFF_FIELD(rejected)
    TF_DIFF_FIELD(generated_tokens)
    TF_DIFF_FIELD(prefill_rounds)
    TF_DIFF_FIELD(decode_rounds)
    TF_DIFF_FIELD(peak_running)
    TF_DIFF_FIELD(peak_queue)
    TF_DIFF_FIELD(peak_reserved_words)
    TF_DIFF_FIELD(kv_capacity_words)
    TF_DIFF_FIELD(makespan_s)
    TF_DIFF_FIELD(tokens_per_second)
    TF_DIFF_FIELD(prefill_energy_j)
    TF_DIFF_FIELD(decode_energy_j)
    TF_DIFF_FIELD(chip_seconds)
    diffHistogram(os, prefix + "ttft", a.ttft_s, b.ttft_s);
    diffHistogram(os, prefix + "tpot", a.tpot_s, b.tpot_s);
    diffHistogram(os, prefix + "latency", a.latency_s, b.latency_s);
    diffHistogram(os, prefix + "queue_wait", a.queue_wait_s,
                  b.queue_wait_s);
}

} // namespace

std::string
diffServeMetrics(const serve::ServeMetrics &a,
                 const serve::ServeMetrics &b)
{
    std::ostringstream os;
    os << std::setprecision(17);
    diffServe(os, "", a, b);
    return os.str();
}

std::string
diffFleetMetrics(const fleet::FleetMetrics &a,
                 const fleet::FleetMetrics &b)
{
    std::ostringstream os;
    os << std::setprecision(17);
    const std::string prefix;
    TF_DIFF_FIELD(offered)
    TF_DIFF_FIELD(completed)
    TF_DIFF_FIELD(rejected)
    TF_DIFF_FIELD(generated_tokens)
    TF_DIFF_FIELD(routed)
    TF_DIFF_FIELD(held_rejected)
    TF_DIFF_FIELD(replica_downs)
    TF_DIFF_FIELD(replica_ups)
    TF_DIFF_FIELD(slowdown_transitions)
    TF_DIFF_FIELD(breaker_opens)
    TF_DIFF_FIELD(breaker_reopens)
    TF_DIFF_FIELD(breaker_closes)
    TF_DIFF_FIELD(breaker_open_s)
    TF_DIFF_FIELD(brownout_activations)
    TF_DIFF_FIELD(brownout_sheds)
    TF_DIFF_FIELD(brownout_s)
    TF_DIFF_FIELD(failover_drained)
    TF_DIFF_FIELD(failover_reroutes)
    TF_DIFF_FIELD(failover_exhausted)
    TF_DIFF_FIELD(failover_wasted_tokens)
    TF_DIFF_FIELD(autoscaler_ticks)
    TF_DIFF_FIELD(scale_ups)
    TF_DIFF_FIELD(scale_downs)
    TF_DIFF_FIELD(peak_serving)
    TF_DIFF_FIELD(makespan_s)
    TF_DIFF_FIELD(completed_per_second)
    TF_DIFF_FIELD(energy_j)
    TF_DIFF_FIELD(chip_seconds)
    diffHistogram(os, "ttft", a.ttft_s, b.ttft_s);
    diffHistogram(os, "tpot", a.tpot_s, b.tpot_s);
    diffHistogram(os, "latency", a.latency_s, b.latency_s);
    diffHistogram(os, "queue_wait", a.queue_wait_s, b.queue_wait_s);
    if (a.replicas.size() != b.replicas.size()) {
        os << "replica count " << a.replicas.size() << " vs "
           << b.replicas.size() << "; ";
    } else {
        for (std::size_t i = 0; i < a.replicas.size(); ++i)
            diffServe(os, "replica " + std::to_string(i) + " ",
                      a.replicas[i], b.replicas[i]);
    }
    return os.str();
}

#undef TF_DIFF_FIELD

} // namespace transfusion::bench
