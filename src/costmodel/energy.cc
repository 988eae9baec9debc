/**
 * @file
 * Implementation of the access-counting energy model.
 */

#include "energy.hh"

#include <algorithm>

#include "common/logging.hh"

namespace transfusion::costmodel
{

EnergyBreakdown &
EnergyBreakdown::operator+=(const EnergyBreakdown &o)
{
    dram_j += o.dram_j;
    buffer_j += o.buffer_j;
    rf_j += o.rf_j;
    pe_j += o.pe_j;
    link_j += o.link_j;
    return *this;
}

EnergyBreakdown
EnergyBreakdown::scaled(double factor) const
{
    return { dram_j * factor, buffer_j * factor, rf_j * factor,
             pe_j * factor, link_j * factor };
}

double
dramEnergy(const arch::ArchConfig &arch, double bytes)
{
    tf_assert(bytes >= 0, "negative DRAM byte count");
    return bytes * arch.energy.dram_pj_per_byte * 1e-12;
}

EnergyBreakdown
opOnChipEnergy(const einsum::CompiledCascade &cascade, std::size_t op,
               const einsum::Extents &x, const arch::ArchConfig &arch,
               const OnChipParams &params)
{
    const double load = cascade.computeLoad(op, x);
    const double out_words = cascade.outputElements(op, x);
    double in_words = 0;
    for (std::size_t k = 0; k < cascade.inputCount(op); ++k)
        in_words += cascade.inputElements(op, k, x);

    double buffer_words;
    if (cascade.peClass(op) == einsum::PeClass::Matrix) {
        // Systolic reuse: each buffered word feeds `reuse` MACs.
        double reuse = params.matrix_rf_reuse;
        if (reuse <= 0) {
            reuse = static_cast<double>(
                std::min(arch.pe2d.rows, arch.pe2d.cols));
        }
        buffer_words = load / reuse + out_words;
    } else {
        // Streaming op: inputs and outputs move through the buffer
        // once each.
        buffer_words = in_words + out_words;
    }

    const double forwarded =
        buffer_words * params.rf_forward_fraction;
    const double buffered = buffer_words - forwarded;

    EnergyBreakdown e;
    e.pe_j = load * arch.energy.mac_pj * 1e-12;
    // ~3 RF touches per scalar op, plus the forwarded words.
    e.rf_j = (3.0 * load + forwarded) * arch.energy.reg_pj * 1e-12;
    e.buffer_j = buffered * arch.energy.buffer_pj * 1e-12;
    return e;
}

EnergyBreakdown
opOnChipEnergy(const einsum::Einsum &op, const einsum::DimEnv &dims,
               const arch::ArchConfig &arch,
               const OnChipParams &params)
{
    const auto c = einsum::CompiledCascade::ofOp(op);
    return opOnChipEnergy(c, 0, c.bind(dims), arch, params);
}

EnergyBreakdown
cascadeOnChipEnergy(const einsum::CompiledCascade &cascade,
                    const einsum::Extents &x,
                    const arch::ArchConfig &arch,
                    const OnChipParams &params)
{
    EnergyBreakdown total;
    for (std::size_t op = 0; op < cascade.size(); ++op)
        total += opOnChipEnergy(cascade, op, x, arch, params);
    return total;
}

EnergyBreakdown
cascadeOnChipEnergy(const einsum::Cascade &cascade,
                    const einsum::DimEnv &dims,
                    const arch::ArchConfig &arch,
                    const OnChipParams &params)
{
    const einsum::CompiledCascade c(cascade);
    return cascadeOnChipEnergy(c, c.bind(dims), arch, params);
}

} // namespace transfusion::costmodel
