/**
 * @file
 * Lowering of Einsum cascades to the integer-indexed form.
 */

#include "compiled.hh"

#include <algorithm>
#include <limits>

#include "common/logging.hh"

namespace transfusion::einsum
{

CompiledCascade::CompiledCascade(std::string name, Dag dag)
    : name_(std::move(name)), dag_(std::move(dag))
{}

CompiledCascade::CompiledCascade(const Cascade &cascade)
    : CompiledCascade(cascade.name(), cascade.buildDag())
{
    ops_.reserve(cascade.size());
    for (const auto &op : cascade.ops())
        addOp(op);
}

CompiledCascade
CompiledCascade::ofOp(const Einsum &op)
{
    CompiledCascade c(op.name(), Dag(1));
    c.addOp(op);
    return c;
}

std::uint16_t
CompiledCascade::idOf(const std::string &label)
{
    const auto it = std::find(labels_.begin(), labels_.end(), label);
    if (it != labels_.end())
        return static_cast<std::uint16_t>(it - labels_.begin());
    if (labels_.size() > std::numeric_limits<std::uint16_t>::max())
        tf_fatal("cascade '", name_, "' has more than 65536 dims");
    labels_.push_back(label);
    return static_cast<std::uint16_t>(labels_.size() - 1);
}

void
CompiledCascade::addOp(const Einsum &op)
{
    Op o;
    o.inputs = static_cast<std::uint8_t>(op.inputs().size());
    o.pe_class = op.peClass();
    o.unary = op.unaryOp();
    o.scale = op.scaleFactor();
    const auto append = [&](const std::vector<std::string> &labels) {
        for (const auto &l : labels)
            ids_.push_back(idOf(l));
    };
    // Output, then reduction, labels are interned first: in id
    // order, an op's new labels are exactly the ones its
    // computeLoad meets, in the order it meets them.
    o.begin[0] = static_cast<std::uint32_t>(ids_.size());
    append(op.output().indices);
    o.begin[1] = static_cast<std::uint32_t>(ids_.size());
    append(op.reductionIndices());
    o.begin[2] = static_cast<std::uint32_t>(ids_.size());
    for (std::size_t k = 0; k < 2; ++k) {
        if (k < o.inputs)
            append(op.inputs()[k].indices);
        o.begin[3 + k] = static_cast<std::uint32_t>(ids_.size());
    }
    ops_.push_back(o);
}

Extents
CompiledCascade::bind(const DimEnv &env) const
{
    Extents x;
    x.reserve(labels_.size());
    for (const auto &label : labels_)
        x.push_back(env.extent(label));
    return x;
}

DimIds
CompiledCascade::outputDims(std::size_t op) const
{
    tf_assert(op < ops_.size(), "op index ", op, " out of range");
    return span(ops_[op].begin[0], ops_[op].begin[1]);
}

DimIds
CompiledCascade::reductionDims(std::size_t op) const
{
    tf_assert(op < ops_.size(), "op index ", op, " out of range");
    return span(ops_[op].begin[1], ops_[op].begin[2]);
}

std::size_t
CompiledCascade::inputCount(std::size_t op) const
{
    tf_assert(op < ops_.size(), "op index ", op, " out of range");
    return ops_[op].inputs;
}

DimIds
CompiledCascade::inputDims(std::size_t op, std::size_t k) const
{
    tf_assert(k < inputCount(op), "input ", k, " out of range");
    return span(ops_[op].begin[2 + k], ops_[op].begin[3 + k]);
}

} // namespace transfusion::einsum
