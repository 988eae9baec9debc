/**
 * @file
 * DPipe plan skeletons: the topology-only half of the pipeline
 * search (Sec. 4).
 *
 * Everything DPipe enumerates before it looks at a latency -- the
 * valid bipartitions of the epoch DAG, each one's Fig. 7(d)
 * steady-state DAG and its fill (A alone) and drain (B alone)
 * subgraphs, and the candidate topological orders of all of them --
 * depends only on the cascade DAG's edges and on the order cap.
 * A library of four layer kinds has four such topologies, while
 * every (S, D, H, arch) point changes only the per-op latencies.
 * pipelineSkeleton() therefore builds each skeleton once per
 * process and hands out the same immutable copy to every later
 * call; schedulePipeline scores its latency tables against it.
 *
 * The memo has its own mutex rather than living in
 * costmodel::CostTableCache: cached serve and shard-plan builders
 * run schedulePipeline while holding that cache's lock.
 */

#ifndef TRANSFUSION_DPIPE_SKELETON_HH
#define TRANSFUSION_DPIPE_SKELETON_HH

#include <cstddef>
#include <vector>

#include "dpipe/dp_scheduler.hh"
#include "dpipe/partition.hh"
#include "einsum/dag.hh"

namespace transfusion::dpipe
{

/** One valid bipartition and the orders of the DAGs its plan
 *  schedules (each OrderSet carries its DAG's edges). */
struct BipartitionSkeleton
{
    Bipartition partition;
    /** Orders of the Fig. 7(d) steady-state DAG; node n is the
     *  virtual ROOT. */
    OrderSet steady;
    OrderSet fill;          ///< subgraph A alone (pipeline fill)
    OrderSet drain;         ///< subgraph B alone (pipeline drain)
    std::vector<int> a_ids; ///< fill node id -> epoch DAG id
    std::vector<int> b_ids; ///< drain node id -> epoch DAG id
};

/** Everything DPipe enumerates for one DAG topology. */
struct PipelineSkeleton
{
    OrderSet epoch;
    std::vector<BipartitionSkeleton> bipartitions;
};

/**
 * Build the skeleton of `dag` with `max_orders` candidate orders
 * per DAG (see OrderSet).  Pure; fatal where enumerateBipartitions
 * is (above 22 nodes).
 */
PipelineSkeleton buildPipelineSkeleton(const einsum::Dag &dag,
                                       std::size_t max_orders);

/**
 * The memoized skeleton for (edge list of `dag`, `max_orders`),
 * built on first use.  Thread-safe; the reference stays valid for
 * the life of the process.
 */
const PipelineSkeleton &pipelineSkeleton(const einsum::Dag &dag,
                                         std::size_t max_orders);

/** Number of skeletons memoized so far in this process. */
std::size_t pipelineSkeletonCount();

} // namespace transfusion::dpipe

#endif // TRANSFUSION_DPIPE_SKELETON_HH
