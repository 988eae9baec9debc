/**
 * @file
 * Implementation of the Eq. 40-42 latency model.
 */

#include "latency.hh"

#include "common/logging.hh"

namespace transfusion::costmodel
{

std::string
toString(PeTarget t)
{
    switch (t) {
      case PeTarget::Array2d: return "2D";
      case PeTarget::Array1d: return "1D";
    }
    tf_panic("unknown PeTarget");
}

double
effectivePes(einsum::PeClass cls, const arch::ArchConfig &arch,
             PeTarget target, const LatencyParams &params)
{
    using einsum::PeClass;
    if (target == PeTarget::Array2d) {
        const double pes =
            static_cast<double>(arch.pe2d.count());
        if (cls == PeClass::Matrix)
            return pes * params.native_efficiency;
        return std::min(pes, params.vector_on_2d_max_lanes);
    }
    // 1D array: vector ops stream at the element count; a
    // contraction cannot exploit 2D reuse there and is derated.
    const double pes = static_cast<double>(arch.pe1d);
    if (cls == einsum::PeClass::Matrix)
        return pes * params.matrix_on_1d_efficiency;
    return pes * params.native_efficiency;
}

double
effectivePes(const einsum::Einsum &op, const arch::ArchConfig &arch,
             PeTarget target, const LatencyParams &params)
{
    return effectivePes(op.peClass(), arch, target, params);
}

double
computeCycles(double load, double effective_pes)
{
    tf_assert(effective_pes > 0, "effective PE count must be > 0");
    tf_assert(load >= 0, "negative compute load");
    return load / effective_pes;
}

double
opLatencySeconds(double load, einsum::PeClass cls,
                 const arch::ArchConfig &arch, PeTarget target,
                 const LatencyParams &params)
{
    const double pes = effectivePes(cls, arch, target, params);
    return computeCycles(load, pes) / arch.clock_hz;
}

double
opLatencySeconds(const einsum::Einsum &op,
                 const einsum::DimEnv &dims,
                 const arch::ArchConfig &arch, PeTarget target,
                 const LatencyParams &params)
{
    const auto c = einsum::CompiledCascade::ofOp(op);
    return opLatencySeconds(c.computeLoad(0, c.bind(dims)),
                            c.peClass(0), arch, target, params);
}

} // namespace transfusion::costmodel
