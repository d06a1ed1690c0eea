"""Operator-graph construction: exact FLOP/byte integers.

The layer- and graph-level totals are frozen from independent spreadsheet
derivations of the three kernel conventions (context, generation, expert);
a regression here means the cost model changed, not that a tolerance
drifted.
"""

import hashlib
from dataclasses import replace

import pytest

from vla_roofline.opgraph import (
    ACTION,
    VISION,
    VLM,
    OperatorGraph,
    diffusion_runs,
    matmul_op,
    parallel_decode_runs,
    pipeline_graph,
    prefill_runs,
    vit_encode_runs,
)
from vla_roofline.scenarios import DECODING_VARIANTS, decoding_variant_spec
from vla_roofline.workload import (
    AUTOREGRESSIVE,
    AUTOREGRESSIVE_PARALLEL,
    kv_bytes_per_token,
    scaled_family,
)


def test_matmul_op_counts():
    op = matmul_op(800, 2048, 2048)
    assert op.flops == 2 * 800 * 2048 * 2048
    assert op.bytes == 2 * (800 * 2048 + 2048 * 2048 + 800 * 2048)


def test_matmul_zero_rows_is_pure_weight_read():
    op = matmul_op(0, 256, 2048)
    assert op.flops == 0
    assert op.bytes == 2 * 256 * 2048


def test_graph_of_concatenated_and_scaled_runs():
    a = OperatorGraph(((matmul_op(1, 2, 3), 1),))
    b = OperatorGraph(((matmul_op(4, 5, 6), 1),))
    combined = OperatorGraph(a.ops + b.ops)
    assert combined.total_flops == a.total_flops + b.total_flops
    tripled = OperatorGraph((op, 3 * count) for op, count in a.ops)
    assert tripled.total_bytes == 3 * a.total_bytes
    assert tripled.ops == ((matmul_op(1, 2, 3), 3),)
    assert OperatorGraph((op, 0) for op, count in a.ops).ops == ()


# --- VLM prefill: gemma-2b, 800 fresh tokens, no prior prefix -------------

def test_prefill_layer_composition(lib):
    gemma = lib.component("gemma-2b")
    runs = prefill_runs(gemma, 800)
    # One run per layer operator, each launched once per layer.
    assert all(count == gemma.num_layers for _, count in runs)
    layer = [op for op, _ in runs[:6]]
    by_label = {op.label: op for op in layer}
    assert by_label["q_proj"].bytes == 14_942_208
    assert by_label["k_proj"].bytes == 4_734_976
    assert by_label["v_proj"].bytes == 4_734_976
    assert by_label["attn_out"].bytes == 14_942_208
    assert by_label["ffn_up"].bytes == 96_600_064
    # Gated up projection is fused with the first: weights + input only.
    fused = runs[5][0]
    assert fused.label == "ffn_up_fused"
    assert fused.bytes == 70_385_664
    assert runs[6][0].label == "ffn_down"
    assert runs[6][0].bytes == 96_600_064


def test_prefill_graph_totals(lib):
    gemma = lib.component("gemma-2b")
    graph = OperatorGraph(prefill_runs(gemma, 800))
    assert graph.total_bytes == 5_452_922_880
    assert graph.total_flops == 3_265_265_664_000


def test_prefill_flops_are_dense_forward_plus_attention(lib):
    """2 * tokens * params for the matmuls, 4*q*(q+prefix)*q_width per
    layer for attention — the totals must decompose exactly."""
    from vla_roofline.workload import param_count
    gemma = lib.component("gemma-2b")
    graph = OperatorGraph(prefill_runs(gemma, 800))
    dense = 2 * 800 * param_count(gemma)
    attn = gemma.num_layers * 4 * 800 * 800 * gemma.q_width
    assert graph.total_flops == dense + attn


# --- Vision encoding: one batched forward over all cameras ----------------

def test_vision_graph_totals(lib, pi0):
    graph = OperatorGraph(vit_encode_runs(lib.component("siglip-so400m"), 3))
    # Pipeline vision phase totals minus the cross-modal projector matmul.
    assert graph.total_bytes == 1_670_550_528 - 9_633_792
    assert graph.total_flops == 709_452_103_680 - 3_623_878_656


def test_vision_attention_is_joint_across_images(lib):
    """Three images in one forward attend 768 tokens, not 3 x 256."""
    siglip = lib.component("siglip-so400m")
    one = OperatorGraph(vit_encode_runs(siglip, 1))
    three = OperatorGraph(vit_encode_runs(siglip, 3))
    assert three.total_flops > 3 * one.total_flops  # quadratic attention term


def test_vision_zero_images_is_empty(lib):
    assert vit_encode_runs(lib.component("siglip-so400m"), 0) == []


def test_vision_requires_patch_dim(lib):
    with pytest.raises(ValueError, match="patch_input_dim"):
        vit_encode_runs(lib.component("gemma-2b"), 3)


# --- Action expert: diffusion over cached VLM context ----------------------

def test_diffusion_step_totals(lib, pi0):
    graph = OperatorGraph(diffusion_runs(pi0.action_expert, 800,
                                         kv_bytes_per_token(pi0.vlm), 50, 1,
                                         14, context_cfg=pi0.vlm))
    assert graph.total_bytes == 731_061_488
    assert graph.total_flops == 37_412_454_400


def test_diffusion_attention_window_choice(lib, pi0):
    """The context window is read per KV-group only while that is cheaper
    than materialising score rows; the baseline sits on the score side."""
    runs = diffusion_runs(pi0.action_expert, 800,
                          kv_bytes_per_token(pi0.vlm), 50, 1, 14,
                          context_cfg=pi0.vlm)
    attn, count = next(run for run in runs if run[0].label == "attention")
    assert count == pi0.action_expert.num_layers
    # 2*(2*50*2048 + [2*800*256 + 4*8*50*800] + [2*50*256 + 4*8*50*50])
    assert attn.bytes == 4_000_000
    assert attn.flops == 4 * 50 * 850 * 2048


def test_diffusion_is_linear_in_steps(lib, pi0):
    one = OperatorGraph(diffusion_runs(pi0.action_expert, 800, 18_432, 50, 1,
                                       14, context_cfg=pi0.vlm))
    ten = OperatorGraph(diffusion_runs(pi0.action_expert, 800, 18_432, 50, 10,
                                       14, context_cfg=pi0.vlm))
    assert ten.total_flops == 10 * one.total_flops
    assert ten.total_bytes == 10 * one.total_bytes


def test_diffusion_zero_steps_is_empty(pi0):
    assert diffusion_runs(pi0.action_expert, 800, 18_432, 50, 0, 14) == []


def test_diffusion_context_width_fallback_matches_explicit(pi0):
    """Without the context config, the cached-context KV width is recovered
    from bytes-per-token; identical here because the stacks are both 18
    layers deep."""
    explicit = OperatorGraph(diffusion_runs(
        pi0.action_expert, 800, 18_432, 50, 10, 14, context_cfg=pi0.vlm))
    recovered = OperatorGraph(diffusion_runs(
        pi0.action_expert, 800, 18_432, 50, 10, 14))
    assert explicit.total_bytes == recovered.total_bytes
    assert explicit.total_flops == recovered.total_flops


# --- Decode kernels ---------------------------------------------------------

def test_decode_step_totals(lib):
    """One autoregressive token is a parallel decode of one."""
    graph = OperatorGraph(parallel_decode_runs(lib.component("gemma-2b"), 1, 800))
    assert graph.total_bytes == 3_981_210_912


def test_parallel_decode_layer_totals(lib):
    gemma = lib.component("gemma-2b")
    fifty = OperatorGraph(parallel_decode_runs(gemma, 700, 800))
    per_layer_flops = fifty.total_flops // gemma.num_layers
    per_layer_bytes = fifty.total_bytes // gemma.num_layers
    assert per_layer_flops == 162_742_272_000
    assert per_layer_bytes == 339_605_760
    ten = OperatorGraph(parallel_decode_runs(gemma, 140, 800))
    assert ten.total_flops // gemma.num_layers == 31_906_201_600
    assert ten.total_bytes // gemma.num_layers == 243_482_880


# --- Full pipeline ----------------------------------------------------------

def test_pipeline_phase_totals(pi0):
    graph = pipeline_graph(pi0)
    assert graph.subgraph(VISION).total_bytes == 1_670_550_528
    assert graph.subgraph(VISION).total_flops == 709_452_103_680
    assert graph.subgraph(VLM).total_bytes == 5_452_922_880
    assert graph.subgraph(VLM).total_flops == 3_265_265_664_000
    assert graph.subgraph(ACTION).total_bytes == 7_310_614_880
    assert graph.subgraph(ACTION).total_flops == 374_124_544_000


def test_pipeline_contains_projector(pi0):
    graph = pipeline_graph(pi0)
    projector = [run for run in graph.ops if run[0].label == "mm_projector"]
    assert len(projector) == 1
    op, count = projector[0]
    assert count == 1
    assert op.phase == VISION
    assert op.flops == 2 * 768 * 2048 * 1152


def test_pipeline_is_sum_of_its_phases(pi0):
    graph = pipeline_graph(pi0)
    assert graph.total_bytes == sum(
        graph.subgraph(ph).total_bytes for ph in (VISION, VLM, ACTION))


def test_autoregressive_pipeline_decodes_each_action_token(pi0):
    ar = replace(pi0, action_expert=None, decoding_mode=AUTOREGRESSIVE)
    graph = pipeline_graph(ar)
    action = graph.subgraph(ACTION)
    step = OperatorGraph(parallel_decode_runs(pi0.vlm, 1, 800, ACTION))
    assert action.ops == tuple((op, 700 * count) for op, count in step.ops)
    assert action.total_bytes == 700 * step.total_bytes
    assert action.total_flops == 700 * step.total_flops


def test_parallel_pipeline_uses_one_forward(pi0):
    par = replace(pi0, action_expert=None,
                  decoding_mode=AUTOREGRESSIVE_PARALLEL)
    action = pipeline_graph(par).subgraph(ACTION)
    assert action.total_flops == \
        OperatorGraph(parallel_decode_runs(pi0.vlm, 700, 800)).total_flops


def test_long_context_grows_history(pi0):
    """At timestep t the fresh prefix attends (t-1) steps of cached camera
    tokens and the expert streams that history once per denoise pass."""
    base = pipeline_graph(pi0, context_timestep=1)
    later = pipeline_graph(pi0, context_timestep=10)
    assert base.total_bytes == pipeline_graph(pi0).total_bytes
    assert later.total_bytes > base.total_bytes
    assert later.subgraph(VISION).total_bytes == \
        base.subgraph(VISION).total_bytes  # encoding itself is unchanged


def test_pipeline_kernel_counts(pi0):
    """Kernels launched per control step, and the few distinct operators
    they are runs of."""
    ar = replace(pi0, action_expert=None, decoding_mode=AUTOREGRESSIVE)
    for spec, kernels, distinct in ((pi0, 1_750, 25), (ar, 88_490, 21)):
        graph = pipeline_graph(spec)
        assert sum(count for _, count in graph.ops) == kernels
        assert len(graph.ops) == distinct


def test_layer_builders_repeat_one_layer(lib, pi0):
    """Every layer operator is one run whose count is the layer count; the
    unfused up projections of a generation layer are equal, so they merge."""
    gemma = lib.component("gemma-2b")
    siglip = lib.component("siglip-so400m")
    cases = (
        (prefill_runs(gemma, 800), gemma.num_layers, {}),
        (parallel_decode_runs(gemma, 50, 800), gemma.num_layers,
         {"ffn_up": gemma.num_ffi * gemma.num_layers}),
        (vit_encode_runs(siglip, 3), siglip.num_layers, {"patch_embed": 1}),
        (diffusion_runs(pi0.action_expert, 800, 18_432, 50, 1, 14,
                        context_cfg=pi0.vlm),
         pi0.action_expert.num_layers,
         {"action_in_proj": 1, "action_out_proj": 1}),
    )
    for runs, layers, special in cases:
        for op, count in OperatorGraph(runs).ops:
            assert count == special.get(op.label, layers), op.label


def test_runs_merge_equal_operators_in_first_seen_order():
    a, b = matmul_op(1, 2, 3, label="a"), matmul_op(1, 2, 3, label="b")
    graph = OperatorGraph(((a, 2), (b, 0), (b, 1), (a, 3)))
    assert graph.ops == ((a, 5), (b, 1))
    assert OperatorGraph(graph.ops + graph.ops).ops == ((a, 10), (b, 2))
    with pytest.raises(ValueError, match="count"):
        OperatorGraph(((a, -1),))


# Recorded before the part builders returned plain runs; the runs of every
# pipeline must not change.
RUNS_DIGEST = "150c6970864d7c26a0a93f49d1310fb386be334760e2e7a1f8a0d4af6b9a794f"


def test_pipeline_runs_digest(lib):
    """SHA-256 of the runs of every preset and scaled-family model, in every
    decoding variant, stateless and at two context timesteps."""
    specs = [lib.model(name) for name in sorted(lib.models)]
    specs += scaled_family(lib)
    digest = hashlib.sha256()
    for spec in specs:
        for variant in DECODING_VARIANTS:
            variant_spec = decoding_variant_spec(spec, variant,
                                                 spec.chunk_size,
                                                 spec.action_dof)
            for timestep in (None, 10, 1000):
                runs = [(op.label, op.flops, op.bytes, op.phase, count)
                        for op, count in pipeline_graph(variant_spec,
                                                        timestep).ops]
                digest.update(repr(runs).encode())
    assert digest.hexdigest() == RUNS_DIGEST
