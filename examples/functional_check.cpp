/**
 * @file
 * Functional-simulation demo: executes the paper's Einsum cascades
 * on real tensors through the interpreter and the streaming 1-pass
 * attention, and checks them against the unfused reference
 * Transformer -- the correctness argument behind end-to-end fusion,
 * runnable as a program.
 */

#include <iostream>

#include "bench_util.hh"
#include "model/cascades.hh"
#include "ref/interpreter.hh"
#include "ref/recurrent_interpreter.hh"
#include "ref/reference.hh"
#include "ref/streaming_attention.hh"

int
main(int argc, char **argv)
{
    using namespace transfusion;
    bench::rejectSurplusArgs(argc, argv, 0, "");
    using ref::Tensor;

    // A small but non-trivial layer.
    model::TransformerConfig cfg;
    cfg.name = "demo";
    cfg.layers = 1;
    cfg.heads = 4;
    cfg.head_dim = 16;
    cfg.d_model = 64;
    cfg.ffn_hidden = 128;
    cfg.activation = einsum::UnaryOp::Gelu;
    cfg.batch = 1;

    const std::int64_t p = 12, m0 = 8, m1 = 3;
    const auto dims = model::makeDims(cfg, p, m0, m1);
    Rng rng(2026);

    std::cout << "Functional check: " << cfg.name << " (H="
              << cfg.heads << ", E=" << cfg.head_dim << ", S="
              << cfg.ffn_hidden << "), P=" << p << ", context="
              << m1 * m0 << "\n\n";

    // --- Cascade 2: QKV projections via the interpreter.
    ref::Bindings env;
    env["INPUT"] = Tensor::random({ cfg.d_model, p }, rng);
    env["INPUT_KV"] =
        Tensor::random({ cfg.d_model, m1, m0 }, rng);
    env["WQ"] = Tensor::random(
        { cfg.d_model, cfg.heads, cfg.head_dim }, rng, -0.3, 0.3);
    env["WK"] = Tensor::random(
        { cfg.d_model, cfg.heads, cfg.head_dim }, rng, -0.3, 0.3);
    env["WV"] = Tensor::random(
        { cfg.d_model, cfg.heads, cfg.head_dim }, rng, -0.3, 0.3);
    env = ref::evaluateCascade(model::buildQkvCascade(), dims,
                               std::move(env));
    const double q_err = Tensor::maxAbsDiff(
        env.at("Q"), ref::projectQkv(env.at("INPUT"),
                                     env.at("WQ")));
    std::cout << "Cascade 2 (QKV):        max |err| = " << q_err
              << "\n";

    // --- Cascade 1: streaming attention vs naive softmax.
    Tensor k({ cfg.heads, cfg.head_dim, m1 * m0 });
    Tensor v({ cfg.heads, cfg.head_dim, m1 * m0 });
    for (std::int64_t h = 0; h < cfg.heads; ++h) {
        for (std::int64_t e = 0; e < cfg.head_dim; ++e) {
            for (std::int64_t i = 0; i < m1 * m0; ++i) {
                k.at({ h, e, i }) =
                    env.at("BK").at({ h, e, i / m0, i % m0 });
                v.at({ h, e, i }) =
                    env.at("BV").at({ h, e, i / m0, i % m0 });
            }
        }
    }
    const Tensor av =
        ref::streamingAttention(env.at("Q"), k, v, m0);
    const double av_err = Tensor::maxAbsDiff(
        av, ref::naiveAttention(env.at("Q"), k, v));
    std::cout << "Cascade 1 (1-pass MHA): max |err| = " << av_err
              << "\n";

    // The same check through the *generic* recurrent interpreter:
    // the exact 12-op cascade object DPipe schedules, executed
    // m1-iteration by m1-iteration.
    ref::Bindings mha;
    mha["Q"] = env.at("Q");
    mha["BK"] = env.at("BK");
    mha["BV"] = env.at("BV");
    const ref::Bindings mha_out = ref::evaluateRecurrentCascade(
        model::buildMhaCascade(), dims, std::move(mha), "m1");
    const double cascade_err =
        Tensor::maxAbsDiff(mha_out.at("AV"), av);
    std::cout << "Cascade 1 (generic):    max |err| = "
              << cascade_err << "\n";

    // --- Cascade 3: Add & LayerNorm.
    ref::Bindings ln;
    ln["AV"] = av;
    ln["INP"] = Tensor::random(
        { cfg.heads, cfg.head_dim, p }, rng);
    ln = ref::evaluateCascade(
        model::buildCascade(model::LayerKind::LayerNorm, cfg),
        dims, std::move(ln));
    const double nr_err = Tensor::maxAbsDiff(
        ln.at("NR"), ref::addLayerNorm(ln.at("INP"), av));
    std::cout << "Cascade 3 (Add&LN):     max |err| = " << nr_err
              << "\n";

    // --- Cascade 4: FFN.
    ref::Bindings ffn;
    ffn["NR"] = ln.at("NR");
    ffn["WF1"] = Tensor::random(
        { cfg.heads, cfg.head_dim, cfg.ffn_hidden }, rng, -0.3,
        0.3);
    ffn["BF1"] = Tensor::random({ cfg.ffn_hidden }, rng);
    ffn["WF2"] = Tensor::random(
        { cfg.heads, cfg.head_dim, cfg.ffn_hidden }, rng, -0.3,
        0.3);
    ffn["BF2"] = Tensor::random(
        { cfg.heads, cfg.head_dim }, rng);
    const Tensor expect = ref::feedForward(
        ffn.at("NR"), ffn.at("WF1"), ffn.at("BF1"), ffn.at("WF2"),
        ffn.at("BF2"), cfg.activation);
    ffn = ref::evaluateCascade(model::buildFfnCascade(
                                   cfg.activation),
                               dims, std::move(ffn));
    const double ffn_err =
        Tensor::maxAbsDiff(ffn.at("FFN2B"), expect);
    std::cout << "Cascade 4 (FFN):        max |err| = " << ffn_err
              << "\n\n";

    const bool ok = q_err < 1e-9 && av_err < 1e-9
        && cascade_err < 1e-9 && nr_err < 1e-9 && ffn_err < 1e-9;
    std::cout << (ok ? "All cascades match the reference "
                       "Transformer.\n"
                     : "MISMATCH DETECTED!\n");
    return ok ? 0 : 1;
}
