/**
 * @file
 * Accelergy-substitute energy model.  Energy is access counting:
 * DRAM bytes, on-chip buffer word accesses, register-file word
 * accesses and PE scalar operations, each multiplied by the
 * architecture's per-access constants (arch::EnergyTable).
 *
 * Fusion changes *where* operands live: pipelined producers forward
 * a fraction of intermediate words PE-to-PE through the register
 * file instead of round-tripping the global buffer.  Strategies
 * express that with `rf_forward_fraction` (0 = everything through
 * the buffer, FuseMax-style in-register retention approaches 1 for
 * its fused attention).
 */

#ifndef TRANSFUSION_COSTMODEL_ENERGY_HH
#define TRANSFUSION_COSTMODEL_ENERGY_HH

#include "arch/arch.hh"
#include "einsum/compiled.hh"

namespace transfusion::costmodel
{

/** Energy by memory-hierarchy component (Fig. 13 categories). */
struct EnergyBreakdown
{
    double dram_j = 0;   ///< off-chip memory
    double buffer_j = 0; ///< global on-chip buffer
    double rf_j = 0;     ///< register files
    double pe_j = 0;     ///< PE arrays (compute)
    /** Inter-chip link traffic (multichip only; 0 on one chip). */
    double link_j = 0;

    double total() const
    {
        return dram_j + buffer_j + rf_j + pe_j + link_j;
    }

    EnergyBreakdown &operator+=(const EnergyBreakdown &o);
    EnergyBreakdown scaled(double factor) const;
};

/** Per-strategy on-chip accounting knobs. */
struct OnChipParams
{
    /**
     * Fraction of intermediate-tensor buffer accesses that a fused
     * pipeline forwards through the register file instead.
     */
    double rf_forward_fraction = 0.0;

    /**
     * Operand reuse a matrix op achieves from the 2D array's
     * register files: each buffered word feeds this many MACs.
     * Defaults to the array's smaller dimension at evaluation time
     * when left at 0.
     */
    double matrix_rf_reuse = 0.0;
};

/** DRAM energy for a byte count. */
double dramEnergy(const arch::ArchConfig &arch, double bytes);

/**
 * On-chip (buffer + RF + PE) energy of executing op `op` of a
 * compiled cascade once under bound extents `x`.
 *
 * Accounting: every scalar map-reduce op costs one PE op and ~3 RF
 * accesses.  Matrix-class ops read each buffered input word once
 * per `matrix_rf_reuse` MACs; vector-class ops stream each input
 * and output word through the buffer once (minus the forwarded
 * fraction).
 */
EnergyBreakdown opOnChipEnergy(const einsum::CompiledCascade &cascade,
                               std::size_t op,
                               const einsum::Extents &x,
                               const arch::ArchConfig &arch,
                               const OnChipParams &params = {});

/** opOnChipEnergy of a string-form op under `dims` (lowers it). */
EnergyBreakdown opOnChipEnergy(const einsum::Einsum &op,
                               const einsum::DimEnv &dims,
                               const arch::ArchConfig &arch,
                               const OnChipParams &params = {});

/** Sum of opOnChipEnergy over a compiled cascade, in op order. */
EnergyBreakdown cascadeOnChipEnergy(
    const einsum::CompiledCascade &cascade, const einsum::Extents &x,
    const arch::ArchConfig &arch, const OnChipParams &params = {});

/** cascadeOnChipEnergy of a string-form cascade (lowers it). */
EnergyBreakdown cascadeOnChipEnergy(const einsum::Cascade &cascade,
                                    const einsum::DimEnv &dims,
                                    const arch::ArchConfig &arch,
                                    const OnChipParams &params = {});

} // namespace transfusion::costmodel

#endif // TRANSFUSION_COSTMODEL_ENERGY_HH
