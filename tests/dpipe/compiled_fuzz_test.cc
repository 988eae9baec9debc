/**
 * @file
 * Differential test of the compiled, integer-indexed Einsum IR
 * against the string formulas it replaced.  The reference below is
 * a test-local copy of the string-form cost code (computeLoad over
 * set-built reduction indices, elementCount, effectivePes,
 * opLatencySeconds, opOnChipEnergy and the sequential, static and
 * cooperative schedulers), evaluated on DimEnv lookups.  Every
 * per-op term and every PipelineResult the compiled form produces
 * must match it to the bit: over every library cascade (the four
 * layer kinds and the unfused MHA) x every model x cloud / edge /
 * edge32 / edge64 x S = 2^10..2^20, for prefill and decode
 * (kv_cached) dims as the evaluator binds them, and over random
 * cascades with random labels and shapes.  An unbound label stays
 * fatal with the string form's message.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "arch/arch.hh"
#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/rng.hh"
#include "costmodel/energy.hh"
#include "costmodel/latency.hh"
#include "dpipe/pipeline.hh"
#include "model/cascades.hh"
#include "model/pe_mapping.hh"
#include "schedule_bits.hh"

namespace transfusion::dpipe
{
namespace
{

using costmodel::EnergyBreakdown;
using costmodel::LatencyParams;
using costmodel::OnChipParams;
using costmodel::PeTarget;
using einsum::Cascade;
using einsum::CompiledCascade;
using einsum::DimEnv;
using einsum::Einsum;
using einsum::PeClass;

// ---------------------------------------------------------------
// Reference: the string-form formulas, as they were written before
// the compiled IR.

std::vector<std::string>
refReductionIndices(const Einsum &op)
{
    std::set<std::string> out_set(op.output().indices.begin(),
                                  op.output().indices.end());
    std::set<std::string> seen;
    std::vector<std::string> red;
    for (const auto &in : op.inputs()) {
        for (const auto &idx : in.indices) {
            if (!out_set.count(idx) && seen.insert(idx).second)
                red.push_back(idx);
        }
    }
    return red;
}

double
refComputeLoad(const Einsum &op, const DimEnv &env)
{
    return env.product(op.output().indices)
        * env.product(refReductionIndices(op));
}

double
refElementCount(const einsum::TensorRef &t, const DimEnv &env)
{
    return env.product(t.indices);
}

double
refEffectivePes(const Einsum &op, const arch::ArchConfig &arch,
                PeTarget target, const LatencyParams &params)
{
    const PeClass cls = op.peClass();
    if (target == PeTarget::Array2d) {
        const double pes = static_cast<double>(arch.pe2d.count());
        if (cls == PeClass::Matrix)
            return pes * params.native_efficiency;
        return std::min(pes, params.vector_on_2d_max_lanes);
    }
    const double pes = static_cast<double>(arch.pe1d);
    if (cls == PeClass::Matrix)
        return pes * params.matrix_on_1d_efficiency;
    return pes * params.native_efficiency;
}

double
refOpLatencySeconds(const Einsum &op, const DimEnv &dims,
                    const arch::ArchConfig &arch, PeTarget target,
                    const LatencyParams &params)
{
    const double load = refComputeLoad(op, dims);
    const double pes = refEffectivePes(op, arch, target, params);
    return costmodel::computeCycles(load, pes) / arch.clock_hz;
}

EnergyBreakdown
refOpOnChipEnergy(const Einsum &op, const DimEnv &dims,
                  const arch::ArchConfig &arch,
                  const OnChipParams &params)
{
    const double load = refComputeLoad(op, dims);
    const double out_words = refElementCount(op.output(), dims);
    double in_words = 0;
    for (const auto &ref : op.inputs())
        in_words += refElementCount(ref, dims);
    double buffer_words;
    if (op.peClass() == PeClass::Matrix) {
        double reuse = params.matrix_rf_reuse;
        if (reuse <= 0) {
            reuse = static_cast<double>(
                std::min(arch.pe2d.rows, arch.pe2d.cols));
        }
        buffer_words = load / reuse + out_words;
    } else {
        buffer_words = in_words + out_words;
    }
    const double forwarded = buffer_words * params.rf_forward_fraction;
    const double buffered = buffer_words - forwarded;
    EnergyBreakdown e;
    e.pe_j = load * arch.energy.mac_pj * 1e-12;
    e.rf_j = (3.0 * load + forwarded) * arch.energy.reg_pj * 1e-12;
    e.buffer_j = buffered * arch.energy.buffer_pj * 1e-12;
    return e;
}

PipelineResult
refScheduleSequential(const Cascade &cascade, const DimEnv &dims,
                      const arch::ArchConfig &arch,
                      const PipelineOptions &opts)
{
    PipelineResult r;
    r.epochs = 1;
    r.pipelined = false;
    double t = 0;
    for (const auto &op : cascade.ops()) {
        const bool matrix = op.peClass() == PeClass::Matrix;
        const PeTarget target = matrix ? PeTarget::Array2d
                                       : PeTarget::Array1d;
        const double lat = refOpLatencySeconds(op, dims, arch, target,
                                               opts.latency);
        t += lat;
        const double load = refComputeLoad(op, dims);
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
refScheduleStaticPipeline(const Cascade &cascade, const DimEnv &dims,
                          const arch::ArchConfig &arch,
                          const PipelineOptions &opts)
{
    PipelineResult r;
    r.epochs = 1;
    r.pipelined = true;
    for (const auto &op : cascade.ops()) {
        const bool matrix = op.peClass() == PeClass::Matrix;
        const bool on_2d = matrix
            || (opts.static_exp_on_2d
                && op.unaryOp() == einsum::UnaryOp::Exp);
        const PeTarget target = on_2d ? PeTarget::Array2d
                                      : PeTarget::Array1d;
        const double lat = refOpLatencySeconds(op, dims, arch, target,
                                               opts.latency);
        const double load = refComputeLoad(op, dims);
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
refScheduleCooperative(const Cascade &cascade, const DimEnv &dims,
                       const arch::ArchConfig &arch,
                       const PipelineOptions &opts)
{
    PipelineResult r;
    r.epochs = 1;
    r.pipelined = true;
    double t = 0;
    for (const auto &op : cascade.ops()) {
        const double load = refComputeLoad(op, dims);
        const double rate_2d =
            refEffectivePes(op, arch, PeTarget::Array2d, opts.latency)
            * arch.clock_hz;
        const double rate_1d =
            refEffectivePes(op, arch, PeTarget::Array1d, opts.latency)
            * arch.clock_hz;
        const double rate = rate_2d + rate_1d;
        const double lat = load / rate;
        t += lat;
        r.work.ops_2d += load * rate_2d / rate;
        r.work.ops_1d += load * rate_1d / rate;
        r.work.busy_2d_s += lat;
        r.work.busy_1d_s += lat;
    }
    r.total_seconds = t;
    r.steady_epoch_seconds = t;
    return r;
}

// ---------------------------------------------------------------
// Comparison.

void
expectSameEnergy(const EnergyBreakdown &a, const EnergyBreakdown &b)
{
    EXPECT_SAME_BITS(a.dram_j, b.dram_j);
    EXPECT_SAME_BITS(a.buffer_j, b.buffer_j);
    EXPECT_SAME_BITS(a.rf_j, b.rf_j);
    EXPECT_SAME_BITS(a.pe_j, b.pe_j);
    EXPECT_SAME_BITS(a.link_j, b.link_j);
}

std::vector<std::string>
labelsOf(const CompiledCascade &c, einsum::DimIds ids)
{
    std::vector<std::string> out;
    for (const auto id : ids)
        out.push_back(c.labels()[id]);
    return out;
}

/** Every compiled term of `cascade` (lowered as `compiled`) against
 *  the string reference under `dims`. */
void
expectMatchesReference(const Cascade &cascade,
                       const CompiledCascade &compiled,
                       const DimEnv &dims, const arch::ArchConfig &arch,
                       const LatencyParams &latency)
{
    ASSERT_EQ(compiled.size(), cascade.size());
    const einsum::Extents x = compiled.bind(dims);
    for (std::size_t i = 0; i < cascade.size(); ++i) {
        const Einsum &op = cascade.op(i);
        SCOPED_TRACE("op " + op.name());
        // The IR itself: signatures and Eq. 40's reduction order.
        EXPECT_EQ(op.reductionIndices(), refReductionIndices(op));
        EXPECT_EQ(labelsOf(compiled, compiled.reductionDims(i)),
                  refReductionIndices(op));
        EXPECT_EQ(labelsOf(compiled, compiled.outputDims(i)),
                  op.output().indices);
        ASSERT_EQ(compiled.inputCount(i), op.inputs().size());
        EXPECT_EQ(compiled.peClass(i), op.peClass());
        EXPECT_EQ(compiled.unaryOp(i), op.unaryOp());
        EXPECT_SAME_BITS(compiled.scaleFactor(i), op.scaleFactor());

        // Loads and element counts.
        EXPECT_SAME_BITS(compiled.computeLoad(i, x),
                         refComputeLoad(op, dims));
        EXPECT_SAME_BITS(op.computeLoad(dims), refComputeLoad(op, dims));
        EXPECT_SAME_BITS(compiled.outputElements(i, x),
                         refElementCount(op.output(), dims));
        for (std::size_t k = 0; k < op.inputs().size(); ++k) {
            EXPECT_EQ(labelsOf(compiled, compiled.inputDims(i, k)),
                      op.inputs()[k].indices);
            EXPECT_SAME_BITS(compiled.inputElements(i, k, x),
                             refElementCount(op.inputs()[k], dims));
        }

        // Latency terms, compiled and through the string wrappers.
        for (const PeTarget t :
             { PeTarget::Array2d, PeTarget::Array1d }) {
            const double pes =
                refEffectivePes(op, arch, t, latency);
            EXPECT_SAME_BITS(costmodel::effectivePes(
                                 compiled.peClass(i), arch, t, latency),
                             pes);
            EXPECT_SAME_BITS(costmodel::effectivePes(op, arch, t,
                                                     latency),
                             pes);
            const double lat =
                refOpLatencySeconds(op, dims, arch, t, latency);
            EXPECT_SAME_BITS(costmodel::opLatencySeconds(
                                 compiled.computeLoad(i, x),
                                 compiled.peClass(i), arch, t, latency),
                             lat);
            EXPECT_SAME_BITS(costmodel::opLatencySeconds(
                                 op, dims, arch, t, latency),
                             lat);
        }

        // Energy under the evaluator's forwarding fractions and an
        // explicit reuse.
        for (const OnChipParams &p :
             { OnChipParams{ 0.0, 0.0 }, OnChipParams{ 0.6, 0.0 },
               OnChipParams{ 0.25, 7.0 } }) {
            const EnergyBreakdown e =
                refOpOnChipEnergy(op, dims, arch, p);
            expectSameEnergy(
                costmodel::opOnChipEnergy(compiled, i, x, arch, p), e);
            expectSameEnergy(
                costmodel::opOnChipEnergy(op, dims, arch, p), e);
        }
    }

    // Whole-cascade energy, summed in op order.
    EnergyBreakdown energy;
    for (const auto &op : cascade.ops())
        energy += refOpOnChipEnergy(op, dims, arch, { 0.6, 0.0 });
    expectSameEnergy(costmodel::cascadeOnChipEnergy(compiled, x, arch,
                                                    { 0.6, 0.0 }),
                     energy);
    expectSameEnergy(costmodel::cascadeOnChipEnergy(cascade, dims, arch,
                                                    { 0.6, 0.0 }),
                     energy);

    // The plan families.
    PipelineOptions opts;
    opts.latency = latency;
    {
        SCOPED_TRACE("sequential");
        expectSamePlan(scheduleSequential(compiled, x, arch, opts),
                       refScheduleSequential(cascade, dims, arch, opts));
        expectSamePlan(scheduleSequential(cascade, dims, arch, opts),
                       refScheduleSequential(cascade, dims, arch, opts));
    }
    for (const bool exp_on_2d : { false, true }) {
        SCOPED_TRACE(exp_on_2d ? "static, exp on 2D" : "static");
        PipelineOptions s = opts;
        s.static_exp_on_2d = exp_on_2d;
        expectSamePlan(scheduleStaticPipeline(compiled, x, arch, s),
                       refScheduleStaticPipeline(cascade, dims, arch, s));
        expectSamePlan(scheduleStaticPipeline(cascade, dims, arch, s),
                       refScheduleStaticPipeline(cascade, dims, arch, s));
    }
    {
        SCOPED_TRACE("cooperative");
        expectSamePlan(scheduleCooperative(compiled, x, arch, opts),
                       refScheduleCooperative(cascade, dims, arch, opts));
        expectSamePlan(scheduleCooperative(cascade, dims, arch, opts),
                       refScheduleCooperative(cascade, dims, arch, opts));
    }
}

/** The DimEnv the evaluator binds: the inner context tile is the
 *  largest divisor of the context that fits the 2D columns. */
DimEnv
evaluatorDims(const model::TransformerConfig &cfg,
              const arch::ArchConfig &arch, std::int64_t queries,
              std::int64_t context)
{
    const std::int64_t m0 = divisorsUpTo(context, arch.pe2d.cols).back();
    return model::makeDims(cfg, queries, m0, context / m0);
}

TEST(CompiledCascade, MatchesStringEvaluationBitwise)
{
    // Library cascades on the paper grid.
    const std::vector<arch::ArchConfig> archs = {
        arch::archByName("cloud"), arch::archByName("edge"),
        arch::archByName("edge32"), arch::archByName("edge64")
    };
    std::size_t checked = 0;
    for (const auto &cfg : model::allModels()) {
        for (const auto &arch : archs) {
            for (int log_s = 10; log_s <= 20; ++log_s) {
                const std::int64_t s = std::int64_t{ 1 } << log_s;
                // Prefill (P = S) and one decode step against a
                // cache of S, whose QKV projects only the new
                // position.
                struct Point
                {
                    const char *name;
                    DimEnv dims, qkv_dims;
                };
                const Point points[] = {
                    { "prefill", evaluatorDims(cfg, arch, s, s),
                      evaluatorDims(cfg, arch, s, s) },
                    { "decode", evaluatorDims(cfg, arch, 1, s),
                      evaluatorDims(cfg, arch, 1, 1) },
                };
                for (const Point &pt : points) {
                    SCOPED_TRACE(cfg.name + "/" + arch.name + "/S="
                                 + std::to_string(s) + "/" + pt.name);
                    for (const auto kind : model::allLayerKinds()) {
                        SCOPED_TRACE(model::toString(kind));
                        const DimEnv &dims = kind == model::LayerKind::Qkv
                            ? pt.qkv_dims
                            : pt.dims;
                        expectMatchesReference(
                            model::buildCascade(kind, cfg),
                            model::libraryCascade(kind, cfg), dims, arch,
                            {});
                        ++checked;
                    }
                    SCOPED_TRACE("MHA-unfused");
                    expectMatchesReference(
                        model::buildUnfusedMhaCascade(),
                        model::unfusedMhaLibraryCascade(), pt.dims,
                        arch, {});
                    ++checked;
                    if (HasFailure())
                        return;
                }
            }
        }
    }
    EXPECT_EQ(checked, model::allModels().size() * archs.size() * 11
                           * 2 * 5);

    // Random cascades: random label names, signatures, operators,
    // forced PE classes, extents and latency constants.  Inputs
    // read external tensors or earlier outputs, so every DAG is
    // valid.
    Rng rng(20240517);
    const auto archs_n = static_cast<std::uint64_t>(archs.size());
    for (int trial = 0; trial < 300; ++trial) {
        SCOPED_TRACE("random cascade " + std::to_string(trial));
        std::vector<std::string> pool;
        const int labels = 1 + static_cast<int>(rng.nextBelow(9));
        for (int l = 0; l < labels; ++l)
            pool.push_back("d" + std::to_string(rng.nextBelow(1000))
                           + "_" + std::to_string(l));
        const auto signature = [&] {
            std::vector<std::string> sig;
            const int n = 1 + static_cast<int>(rng.nextBelow(4));
            for (int k = 0; k < n; ++k) {
                const std::string &l = pool[rng.nextBelow(pool.size())];
                if (std::find(sig.begin(), sig.end(), l) == sig.end())
                    sig.push_back(l);
            }
            return sig;
        };
        Cascade cascade("random" + std::to_string(trial));
        const int ops = 1 + static_cast<int>(rng.nextBelow(12));
        for (int i = 0; i < ops; ++i) {
            Einsum op("T" + std::to_string(i), signature());
            const int inputs = static_cast<int>(rng.nextBelow(3));
            for (int k = 0; k < inputs; ++k) {
                const bool external = i == 0 || rng.nextBelow(3) == 0;
                const std::string tensor = external
                    ? "X" + std::to_string(rng.nextBelow(4))
                    : "T" + std::to_string(rng.nextBelow(
                          static_cast<std::uint64_t>(i)));
                op.input(tensor, signature());
            }
            if (inputs == 2)
                op.combine(rng.nextBelow(2) == 0 ? einsum::CombineOp::Mul
                                                 : einsum::CombineOp::Add);
            if (rng.nextBelow(2) == 0)
                op.reduce(rng.nextBelow(2) == 0 ? einsum::ReduceOp::Sum
                                                : einsum::ReduceOp::Max);
            if (rng.nextBelow(3) == 0)
                op.unary(einsum::UnaryOp::Exp);
            if (rng.nextBelow(8) == 0)
                op.forcePeClass(rng.nextBelow(2) == 0 ? PeClass::Matrix
                                                      : PeClass::Vector);
            cascade.add(std::move(op));
        }
        // Extents up to 2^31, so that products pass 2^53 and round:
        // their multiplication order then shows in the last bits.
        DimEnv dims;
        for (const auto &l : pool)
            dims.set(l, 1 + static_cast<std::int64_t>(rng.nextBelow(
                            std::uint64_t{ 1 } << (1 + rng.nextBelow(31)))));
        LatencyParams latency;
        latency.vector_on_2d_max_lanes =
            static_cast<double>(1 + rng.nextBelow(4096));
        latency.matrix_on_1d_efficiency = rng.nextDouble(0.1, 1.0);
        latency.native_efficiency = rng.nextDouble(0.5, 1.0);
        const auto &arch = archs[rng.nextBelow(archs_n)];
        expectMatchesReference(cascade, CompiledCascade(cascade), dims,
                               arch, latency);

        // One or two labels unbound: the compiled path fails on the
        // same label, with the same message, as the string path.
        DimEnv partial;
        const std::string drop_a = pool[rng.nextBelow(pool.size())];
        const std::string drop_b = pool[rng.nextBelow(pool.size())];
        for (const auto &l : pool)
            if (l != drop_a && l != drop_b)
                partial.set(l, dims.extent(l));
        std::string want, got;
        try {
            refScheduleSequential(cascade, partial, arch, {});
        } catch (const FatalError &e) {
            want = e.what();
        }
        try {
            scheduleSequential(cascade, partial, arch);
        } catch (const FatalError &e) {
            got = e.what();
        }
        EXPECT_EQ(got, want);
        if (HasFailure())
            return;
    }
}

TEST(CompiledCascade, UnboundLabelIsFatalWithTheStringMessage)
{
    const auto cfg = model::bertBase();
    const auto arch = arch::cloudArch();
    DimEnv dims = model::makeDims(cfg, 64, 16, 4);
    DimEnv no_m0;
    for (const auto &name : dims.names())
        if (name != "m0")
            no_m0.set(name, dims.extent(name));
    const Cascade mha_string = model::buildMhaCascade();
    const Einsum &bqk = mha_string.op(0);
    std::string want;
    try {
        refComputeLoad(bqk, no_m0);
    } catch (const FatalError &e) {
        want = e.what();
    }
    EXPECT_NE(want.find("unbound index 'm0'"), std::string::npos)
        << want;
    const CompiledCascade &mha =
        model::libraryCascade(model::LayerKind::Mha, cfg);
    try {
        (void)mha.bind(no_m0);
        ADD_FAILURE() << "bind accepted an unbound label";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()), want);
    }
    try {
        schedulePipeline(mha_string, no_m0, arch,
                         { { "p" }, { "h" } });
        ADD_FAILURE() << "schedulePipeline accepted an unbound label";
    } catch (const FatalError &e) {
        EXPECT_EQ(std::string(e.what()), want);
    }
}

TEST(CompiledCascade, LibraryEntriesAreMemoizedByWhatTheBuilderReads)
{
    auto a = model::bertBase();
    auto b = model::llama3_8b();
    using model::LayerKind;
    // Shape-free kinds share one entry across models.
    EXPECT_EQ(&model::libraryCascade(LayerKind::Qkv, a),
              &model::libraryCascade(LayerKind::Qkv, b));
    EXPECT_EQ(&model::libraryCascade(LayerKind::Mha, a),
              &model::libraryCascade(LayerKind::Mha, b));
    // LayerNorm's means scale by 1/d_model; FFN's activation.
    ASSERT_NE(a.d_model, b.d_model);
    EXPECT_NE(&model::libraryCascade(LayerKind::LayerNorm, a),
              &model::libraryCascade(LayerKind::LayerNorm, b));
    auto c = a;
    c.activation = a.activation == einsum::UnaryOp::Relu
        ? einsum::UnaryOp::Gelu
        : einsum::UnaryOp::Relu;
    EXPECT_NE(&model::libraryCascade(LayerKind::Ffn, a),
              &model::libraryCascade(LayerKind::Ffn, c));
    auto d = a;
    d.layers += 1;
    EXPECT_EQ(&model::libraryCascade(LayerKind::LayerNorm, a),
              &model::libraryCascade(LayerKind::LayerNorm, d));
    EXPECT_EQ(&model::unfusedMhaLibraryCascade(),
              &model::unfusedMhaLibraryCascade());
    // The cached DAG is the builder's.
    const auto &ffn = model::libraryCascade(LayerKind::Ffn, a);
    const auto dag = model::buildCascade(LayerKind::Ffn, a).buildDag();
    ASSERT_EQ(ffn.dag().nodeCount(), dag.nodeCount());
    for (int v = 0; v < dag.nodeCount(); ++v)
        EXPECT_EQ(ffn.dag().successors(v), dag.successors(v));
}

} // namespace
} // namespace transfusion::dpipe
