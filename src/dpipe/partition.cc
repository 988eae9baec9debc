/**
 * @file
 * Implementation of the bipartition enumeration.
 */

#include "partition.hh"

#include "common/logging.hh"
#include "obs/obs.hh"

namespace transfusion::dpipe
{

int
Bipartition::firstSize() const
{
    int n = 0;
    for (bool b : in_first)
        n += b ? 1 : 0;
    return n;
}

int
Bipartition::secondSize() const
{
    return static_cast<int>(in_first.size()) - firstSize();
}

bool
isValidBipartition(const einsum::Dag &dag,
                   const std::vector<bool> &in_first)
{
    const int n = dag.nodeCount();
    tf_assert(static_cast<int>(in_first.size()) == n,
              "membership vector size mismatch");

    // Both sides must be non-empty for a pipeline to exist.
    int first = 0;
    for (bool b : in_first)
        first += b ? 1 : 0;
    if (first == 0 || first == n)
        return false;

    // Constraint 1: sources in subgraph 1, sinks in subgraph 2.
    for (int v : dag.sources()) {
        if (!in_first[static_cast<std::size_t>(v)])
            return false;
    }
    for (int v : dag.sinks()) {
        if (in_first[static_cast<std::size_t>(v)])
            return false;
    }

    // Constraint 3: subgraph 1 is dependency-complete.
    if (!dag.isDependencyComplete(in_first))
        return false;

    // Constraint 2: both sides weakly connected.
    std::vector<bool> in_second(in_first.size());
    for (std::size_t v = 0; v < in_first.size(); ++v)
        in_second[v] = !in_first[v];
    if (!dag.isWeaklyConnected(in_first)
            || !dag.isWeaklyConnected(in_second)) {
        return false;
    }

    // Constraint 4: subgraph-1 nodes reachable from DAG sources.
    if (!dag.allReachableFromSources(in_first))
        return false;

    return true;
}

std::vector<Bipartition>
enumerateBipartitions(const einsum::Dag &dag)
{
    TF_SPAN("dpipe.enumerate_bipartitions");
    const int n = dag.nodeCount();
    if (n > 22)
        tf_fatal("bipartition enumeration over ", n,
                 " nodes is intractable; cascades are expected to "
                 "stay small");

    std::vector<Bipartition> out;
    std::vector<bool> in_first(static_cast<std::size_t>(n));
    const std::uint64_t limit = std::uint64_t{1}
        << static_cast<unsigned>(n);
    for (std::uint64_t mask = 0; mask < limit; ++mask) {
        for (int v = 0; v < n; ++v) {
            in_first[static_cast<std::size_t>(v)] =
                (mask >> static_cast<unsigned>(v)) & 1;
        }
        if (isValidBipartition(dag, in_first))
            out.push_back(Bipartition{in_first});
    }
    return out;
}

} // namespace transfusion::dpipe
