/**
 * @file
 * Implementation of the DPipe pipeline construction.
 */

#include "pipeline.hh"

#include <algorithm>
#include <limits>
#include <optional>

#include "common/logging.hh"
#include "dpipe/skeleton.hh"
#include "obs/obs.hh"

namespace transfusion::dpipe
{

using costmodel::PeTarget;

namespace
{

/**
 * Per-op [2D, 1D] latency divided into `epochs`, and each op's
 * full load (one load per op, shared by both targets).
 */
void
latencyTable(const einsum::CompiledCascade &cascade,
             const einsum::Extents &x, const arch::ArchConfig &arch,
             const costmodel::LatencyParams &params, double epochs,
             std::vector<OpLatencyPair> &lat,
             std::vector<double> &full_load)
{
    lat.clear();
    full_load.clear();
    for (std::size_t op = 0; op < cascade.size(); ++op) {
        const double load = cascade.computeLoad(op, x);
        const einsum::PeClass cls = cascade.peClass(op);
        full_load.push_back(load);
        lat.push_back({
            costmodel::opLatencySeconds(load, cls, arch,
                                        PeTarget::Array2d, params)
                / epochs,
            costmodel::opLatencySeconds(load, cls, arch,
                                        PeTarget::Array1d, params)
                / epochs,
        });
    }
}

/** Latency table for a subset, remapped to subgraph ids. */
void
subsetLatency(const std::vector<OpLatencyPair> &lat,
              const std::vector<int> &to_orig,
              std::vector<OpLatencyPair> &out)
{
    out.clear();
    for (int v : to_orig)
        out.push_back(lat[static_cast<std::size_t>(v)]);
}

/** Accumulate a schedule's per-array work from full-op loads. */
void
addWork(WorkSplit &work, const Schedule &sched,
        const std::vector<double> &full_load, int epochs_counted)
{
    for (const auto &pl : sched.placements) {
        if (pl.op >= static_cast<int>(full_load.size()))
            continue; // virtual root
        const double ops = full_load[static_cast<std::size_t>(pl.op)]
            * static_cast<double>(epochs_counted);
        if (pl.pe == PeTarget::Array2d)
            work.ops_2d += ops;
        else
            work.ops_1d += ops;
    }
}

} // namespace

PipelineResult
scheduleSequential(const einsum::CompiledCascade &cascade,
                   const einsum::Extents &x,
                   const arch::ArchConfig &arch,
                   const PipelineOptions &opts)
{
    PipelineResult r;
    r.epochs = 1;
    r.pipelined = false;
    double t = 0;
    for (std::size_t op = 0; op < cascade.size(); ++op) {
        const einsum::PeClass cls = cascade.peClass(op);
        const bool matrix = cls == einsum::PeClass::Matrix;
        const PeTarget target = matrix ? PeTarget::Array2d
                                       : PeTarget::Array1d;
        const double load = cascade.computeLoad(op, x);
        const double lat = costmodel::opLatencySeconds(
            load, cls, arch, target, opts.latency);
        t += lat;
        if (matrix) {
            r.work.ops_2d += load;
            r.work.busy_2d_s += lat;
        } else {
            r.work.ops_1d += load;
            r.work.busy_1d_s += lat;
        }
    }
    r.total_seconds = t;
    r.steady_epoch_seconds = t;
    return r;
}

PipelineResult
scheduleStaticPipeline(const einsum::CompiledCascade &cascade,
                       const einsum::Extents &x,
                       const arch::ArchConfig &arch,
                       const PipelineOptions &opts)
{
    PipelineResult r;
    r.epochs = 1;
    r.pipelined = true;
    for (std::size_t op = 0; op < cascade.size(); ++op) {
        const einsum::PeClass cls = cascade.peClass(op);
        const bool on_2d = cls == einsum::PeClass::Matrix
            || (opts.static_exp_on_2d
                && cascade.unaryOp(op) == einsum::UnaryOp::Exp);
        const PeTarget target = on_2d ? PeTarget::Array2d
                                      : PeTarget::Array1d;
        const double load = cascade.computeLoad(op, x);
        const double lat = costmodel::opLatencySeconds(
            load, cls, arch, target, opts.latency);
        if (on_2d) {
            r.work.ops_2d += load;
            r.work.busy_2d_s += lat;
        } else {
            r.work.ops_1d += load;
            r.work.busy_1d_s += lat;
        }
    }
    r.total_seconds = std::max(r.work.busy_2d_s, r.work.busy_1d_s);
    r.steady_epoch_seconds = r.total_seconds;
    return r;
}

PipelineResult
scheduleCooperative(const einsum::CompiledCascade &cascade,
                    const einsum::Extents &x,
                    const arch::ArchConfig &arch,
                    const PipelineOptions &opts)
{
    PipelineResult r;
    r.epochs = 1;
    r.pipelined = true;
    double t = 0;
    for (std::size_t op = 0; op < cascade.size(); ++op) {
        const double load = cascade.computeLoad(op, x);
        const einsum::PeClass cls = cascade.peClass(op);
        const double rate_2d =
            costmodel::effectivePes(cls, arch, PeTarget::Array2d,
                                    opts.latency)
            * arch.clock_hz;
        const double rate_1d =
            costmodel::effectivePes(cls, arch, PeTarget::Array1d,
                                    opts.latency)
            * arch.clock_hz;
        const double rate = rate_2d + rate_1d;
        const double lat = load / rate;
        t += lat;
        // Work and occupancy split in proportion to the rates.
        r.work.ops_2d += load * rate_2d / rate;
        r.work.ops_1d += load * rate_1d / rate;
        r.work.busy_2d_s += lat;
        r.work.busy_1d_s += lat;
    }
    r.total_seconds = t;
    r.steady_epoch_seconds = t;
    return r;
}

std::int64_t
pipelineEpochs(const model::DimMapping &mapping,
               const einsum::DimEnv &dims, const arch::ArchConfig &arch)
{
    return std::max<std::int64_t>(
        1, model::epochCount(mapping, dims, arch.pe2d.rows,
                             arch.pe2d.cols));
}

PipelineResult
schedulePipeline(const einsum::CompiledCascade &cascade,
                 const einsum::Extents &x, std::int64_t epochs,
                 const arch::ArchConfig &arch,
                 const PipelineOptions &opts)
{
    TF_SPAN("dpipe.schedule_pipeline");
    tf_assert(epochs >= 1, "a pipeline runs at least one epoch");
    const PipelineSkeleton &skel =
        pipelineSkeleton(cascade.dag(), opts.max_orders);
    std::vector<OpLatencyPair> lat_epoch;
    std::vector<double> full_load;
    latencyTable(cascade, x, arch, opts.latency,
                 static_cast<double>(epochs), lat_epoch, full_load);

    // Every candidate is scored by makespan alone; only the winning
    // plan's orders are materialized as Schedules afterwards.  The
    // baseline plan DP-schedules one epoch and repeats it
    // back-to-back.
    DpSearchStats dp_stats;
    const OrderScore epoch = skel.epoch.best(lat_epoch, dp_stats);
    double best_total = epoch.makespan * static_cast<double>(epochs);

    // The leading bipartition plan, if one beats the baseline.
    struct Winner
    {
        const BipartitionSkeleton *bp;
        OrderScore steady, fill, drain;
    };
    std::optional<Winner> win;
    auto lat_combined = lat_epoch;
    lat_combined.push_back({0.0, 0.0}); // virtual ROOT
    std::vector<OpLatencyPair> lat_a, lat_b;
    std::int64_t bipartitions_tried = 0;
    std::int64_t bipartitions_kept = 0;
    // One epoch leaves nothing to overlap: only the baseline runs.
    const std::size_t candidates =
        epochs < 2 ? 0 : skel.bipartitions.size();
    for (std::size_t i = 0; i < candidates; ++i) {
        const BipartitionSkeleton &bp = skel.bipartitions[i];
        ++bipartitions_tried;
        subsetLatency(lat_epoch, bp.a_ids, lat_a);
        subsetLatency(lat_epoch, bp.b_ids, lat_b);
        const OrderScore steady = bp.steady.best(lat_combined, dp_stats);
        const OrderScore fill = bp.fill.best(lat_a, dp_stats);
        const OrderScore drain = bp.drain.best(lat_b, dp_stats);

        // Fill (A alone), the steady state, drain (B alone).
        const double total = fill.makespan
            + static_cast<double>(epochs - 1) * steady.makespan
            + drain.makespan;
        if (total < best_total) {
            ++bipartitions_kept;
            best_total = total;
            win = Winner{&bp, steady, fill, drain};
        }
    }

    PipelineResult best;
    best.epochs = epochs;
    best.total_seconds = best_total;
    if (!win) {
        Schedule sched = skel.epoch.schedule(epoch.index, lat_epoch);
        best.pipelined = false;
        best.steady_epoch_seconds = sched.makespan;
        best.work.busy_2d_s = sched.busy_2d * static_cast<double>(epochs);
        best.work.busy_1d_s = sched.busy_1d * static_cast<double>(epochs);
        addWork(best.work, sched, full_load, 1);
        best.steady_schedule = std::move(sched);
    } else {
        const BipartitionSkeleton &bp = *win->bp;
        subsetLatency(lat_epoch, bp.a_ids, lat_a);
        subsetLatency(lat_epoch, bp.b_ids, lat_b);
        Schedule steady =
            bp.steady.schedule(win->steady.index, lat_combined);
        const Schedule fill = bp.fill.schedule(win->fill.index, lat_a);
        const Schedule drain = bp.drain.schedule(win->drain.index, lat_b);
        best.pipelined = true;
        best.partition = bp.partition;
        best.steady_epoch_seconds = win->steady.makespan;
        best.fill_seconds = win->fill.makespan;
        best.drain_seconds = win->drain.makespan;
        best.work.busy_2d_s = fill.busy_2d + drain.busy_2d
            + steady.busy_2d * static_cast<double>(epochs - 1);
        best.work.busy_1d_s = fill.busy_1d + drain.busy_1d
            + steady.busy_1d * static_cast<double>(epochs - 1);
        addWork(best.work, steady, full_load, 1);
        best.steady_schedule = std::move(steady);
    }

    dp_stats.record();
    TF_COUNT("dpipe/pipeline/plans", 1);
    if (epochs < 2)
        return best;
    TF_COUNT("dpipe/pipeline/bipartitions_tried",
             bipartitions_tried);
    TF_COUNT("dpipe/pipeline/bipartitions_improved",
             bipartitions_kept);
    TF_COUNT("dpipe/pipeline/pipelined_chosen",
             best.pipelined ? 1 : 0);
    TF_GAUGE_ADD("dpipe/pipeline/fill_s", best.fill_seconds);
    TF_GAUGE_ADD("dpipe/pipeline/drain_s", best.drain_seconds);
    TF_GAUGE_ADD("dpipe/pipeline/steady_epoch_s",
                 best.steady_epoch_seconds);
    return best;
}

PipelineResult
schedulePipeline(const einsum::Cascade &cascade,
                 const einsum::DimEnv &dims,
                 const arch::ArchConfig &arch,
                 const model::DimMapping &mapping,
                 const PipelineOptions &opts)
{
    const std::int64_t epochs = pipelineEpochs(mapping, dims, arch);
    const einsum::CompiledCascade c(cascade);
    return schedulePipeline(c, c.bind(dims), epochs, arch, opts);
}

PipelineResult
scheduleSequential(const einsum::Cascade &cascade,
                   const einsum::DimEnv &dims,
                   const arch::ArchConfig &arch,
                   const PipelineOptions &opts)
{
    const einsum::CompiledCascade c(cascade);
    return scheduleSequential(c, c.bind(dims), arch, opts);
}

PipelineResult
scheduleStaticPipeline(const einsum::Cascade &cascade,
                       const einsum::DimEnv &dims,
                       const arch::ArchConfig &arch,
                       const PipelineOptions &opts)
{
    const einsum::CompiledCascade c(cascade);
    return scheduleStaticPipeline(c, c.bind(dims), arch, opts);
}

PipelineResult
scheduleCooperative(const einsum::Cascade &cascade,
                    const einsum::DimEnv &dims,
                    const arch::ArchConfig &arch,
                    const PipelineOptions &opts)
{
    const einsum::CompiledCascade c(cascade);
    return scheduleCooperative(c, c.bind(dims), arch, opts);
}

} // namespace transfusion::dpipe
