/**
 * @file
 * CompiledCascade: the integer-indexed form of an Einsum cascade,
 * which every per-call cost formula (loads, latencies, DPipe
 * tables, on-chip energy) runs on.
 *
 * A Cascade is the authoring and validation surface: tensors and
 * dims are named by strings, and the reference interpreter, the
 * validator and the tests read it that way.  Lowering maps each
 * distinct dim label to a small id (first-seen order over the ops'
 * output, then input labels), stores each op's output, reduction
 * and operand dims as id spans of one flat array, caches its
 * PeClass and unary map, and builds the dependency DAG once.
 * bind() then looks each label up in a DimEnv once per call and
 * returns the extents by id; a load is a product over ids.
 *
 * Bit-identity with the string form: every product multiplies the
 * same extents, converted to double, in the same order, left to
 * right from 1.0 -- exactly what DimEnv::product does for the
 * labels -- and the reduction ids keep Eq. 40's first-seen order.
 */

#ifndef TRANSFUSION_EINSUM_COMPILED_HH
#define TRANSFUSION_EINSUM_COMPILED_HH

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "einsum/cascade.hh"

namespace transfusion::einsum
{

/** Extents of a compiled cascade's dims, indexed by dim id. */
using Extents = std::vector<std::int64_t>;

/** Dim ids of one tensor signature (or of a reduction set). */
using DimIds = std::span<const std::uint16_t>;

/** An Einsum cascade lowered to integer dim ids. */
class CompiledCascade
{
  public:
    /** Lower a whole cascade; builds (and checks) its DAG. */
    explicit CompiledCascade(const Cascade &cascade);

    /** Lower a single Einsum as a one-node cascade. */
    static CompiledCascade ofOp(const Einsum &op);

    const std::string &name() const { return name_; }
    std::size_t size() const { return ops_.size(); }
    /** Dim labels by id. */
    const std::vector<std::string> &labels() const { return labels_; }
    /** Dependency DAG (Cascade::buildDag), built at lowering. */
    const Dag &dag() const { return dag_; }

    /**
     * Look every dim label up in `env` once.  An unbound label is
     * fatal with DimEnv's "unbound index '<x>'" message, reported
     * for the first label in id order -- the first one a string
     * evaluation of the ops in order would have hit.
     */
    Extents bind(const DimEnv &env) const;

    /** @name Per-op introspection (op < size()) */
    /// @{
    DimIds outputDims(std::size_t op) const;
    /** Eq. 40's reduction dims, in first-seen order. */
    DimIds reductionDims(std::size_t op) const;
    std::size_t inputCount(std::size_t op) const;
    DimIds inputDims(std::size_t op, std::size_t k) const;
    PeClass peClass(std::size_t op) const { return ops_[op].pe_class; }
    UnaryOp unaryOp(std::size_t op) const { return ops_[op].unary; }
    double scaleFactor(std::size_t op) const { return ops_[op].scale; }
    /// @}

    /** @name Per-op formulas under bound extents */
    /// @{
    /** Eq. 40: product of output extents times product of
     *  reduction extents. */
    double computeLoad(std::size_t op, const Extents &x) const
    {
        const Op &o = ops_[op];
        return product(o.begin[0], o.begin[1], x)
            * product(o.begin[1], o.begin[2], x);
    }
    double outputElements(std::size_t op, const Extents &x) const
    {
        const Op &o = ops_[op];
        return product(o.begin[0], o.begin[1], x);
    }
    double inputElements(std::size_t op, std::size_t k,
                         const Extents &x) const
    {
        const Op &o = ops_[op];
        return product(o.begin[2 + k], o.begin[3 + k], x);
    }
    /// @}

  private:
    /**
     * One op's dims as consecutive spans of ids_: output
     * [begin[0], begin[1]), reduction [begin[1], begin[2]), then
     * input k [begin[2+k], begin[3+k]) for k < inputs.
     */
    struct Op
    {
        std::uint32_t begin[5] = {};
        std::uint8_t inputs = 0;
        PeClass pe_class = PeClass::Vector;
        UnaryOp unary = UnaryOp::None;
        double scale = 1.0;
    };

    CompiledCascade(std::string name, Dag dag);
    void addOp(const Einsum &op);
    std::uint16_t idOf(const std::string &label);
    DimIds span(std::uint32_t first, std::uint32_t last) const
    {
        return { ids_.data() + first, ids_.data() + last };
    }
    /** DimEnv::product over ids_[first, last). */
    double product(std::uint32_t first, std::uint32_t last,
                   const Extents &x) const
    {
        double p = 1.0;
        for (std::uint32_t i = first; i < last; ++i)
            p *= static_cast<double>(x[ids_[i]]);
        return p;
    }

    std::string name_;
    std::vector<std::string> labels_;
    std::vector<std::uint16_t> ids_;
    std::vector<Op> ops_;
    Dag dag_;
};

} // namespace transfusion::einsum

#endif // TRANSFUSION_EINSUM_COMPILED_HH
