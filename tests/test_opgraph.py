"""Operator-graph construction: exact FLOP/byte integers.

The layer- and graph-level totals are frozen from independent spreadsheet
derivations of the three kernel conventions (context, generation, expert);
a regression here means the cost model changed, not that a tolerance
drifted.
"""

import ast
import hashlib
from pathlib import Path

import pytest

from vla_roofline.opgraph import (
    ACTION,
    VISION,
    VLM,
    Operator,
    OperatorGraph,
    _expert_layer,
    diffusion_runs,
    matmul_op,
    parallel_decode_runs,
    phase_builds,
    pipeline_graph,
    prefill_runs,
    token_decode_runs,
    vision_runs,
)
from vla_roofline.record import replace
from vla_roofline.scenarios import (
    DECODING_VARIANTS,
    SCALED_FAMILY,
    decoding_variant_spec,
)
from vla_roofline.workload import (
    AUTOREGRESSIVE,
    AUTOREGRESSIVE_PARALLEL,
    TransformerConfig,
)

from reference import phase_runs, step_runs, totals


def test_matmul_op_counts():
    op = matmul_op(800, 2048, 2048)
    assert op.flops == 2 * 800 * 2048 * 2048
    assert op.bytes == 2 * (800 * 2048 + 2048 * 2048 + 800 * 2048)


def test_matmul_zero_rows_is_pure_weight_read():
    op = matmul_op(0, 256, 2048)
    assert op.flops == 0
    assert op.bytes == 2 * 256 * 2048


@pytest.mark.parametrize("flops, nbytes", [(-1, 20), (10, -1)])
def test_an_operator_refuses_a_negative_count(flops, nbytes):
    with pytest.raises(ValueError,
                       match="^q_proj: flops and bytes must be >= 0$"):
        Operator("q_proj", flops, nbytes, VLM)


def test_graph_of_concatenated_and_scaled_runs():
    a = OperatorGraph(((matmul_op(1, 2, 3), 1),))
    b = OperatorGraph(((matmul_op(4, 5, 6), 1),))
    combined = OperatorGraph(a.ops + b.ops)
    assert totals(combined.ops)[0] == totals(a.ops)[0] + totals(b.ops)[0]
    tripled = OperatorGraph((op, 3 * count) for op, count in a.ops)
    assert totals(tripled.ops)[1] == 3 * totals(a.ops)[1]
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
    flops, nbytes = totals(prefill_runs(gemma, 800))
    assert nbytes == 5_452_922_880
    assert flops == 3_265_265_664_000


def test_prefill_flops_are_dense_forward_plus_attention(lib):
    """2 * tokens * params for the matmuls, 4*q*(q+prefix)*q_width per
    layer for attention — the totals must decompose exactly."""
    from vla_roofline.workload import param_count
    gemma = lib.component("gemma-2b")
    flops, _ = totals(prefill_runs(gemma, 800))
    dense = 2 * 800 * param_count(gemma)
    attn = gemma.num_layers * 4 * 800 * 800 * gemma.q_width
    assert flops == dense + attn


# --- Vision encoding: one batched forward over all cameras ----------------

def test_vision_graph_totals(lib, pi0):
    flops, nbytes = totals(vision_runs(lib.component("siglip-so400m"), 3,
                                       256, 2048))
    # The pipeline's vision phase, cross-modal projector included.
    assert nbytes == 1_670_550_528
    assert flops == 709_452_103_680


def test_vision_attention_is_joint_across_images(lib):
    """Three images in one forward attend 768 tokens, not 3 x 256."""
    siglip = lib.component("siglip-so400m")
    one, _ = totals(vision_runs(siglip, 1, 256, 2048))
    three, _ = totals(vision_runs(siglip, 3, 256, 2048))
    assert three > 3 * one  # quadratic attention term


def test_vision_zero_images_is_empty(lib):
    assert vision_runs(lib.component("siglip-so400m"), 0, 256, 2048) == []


def test_vision_requires_patch_dim(lib):
    with pytest.raises(ValueError, match="patch_input_dim"):
        vision_runs(lib.component("gemma-2b"), 3, 256, 2048)


# --- Action expert: diffusion over cached VLM context ----------------------

def _diffusion(expert, vlm, prefix, chunk, steps, dof, history=0):
    """The diffusion action phase, on the expert layer it repeats."""
    layer = _expert_layer(expert, chunk, prefix, history, vlm.kv_width,
                          vlm.num_kv_heads)
    return diffusion_runs(layer, expert, chunk, steps, dof)


def test_diffusion_step_totals(lib, pi0):
    flops, nbytes = totals(_diffusion(pi0.action_expert, pi0.vlm, 800,
                                      50, 1, 14))
    assert nbytes == 731_061_488
    assert flops == 37_412_454_400


def test_diffusion_attention_window_choice(lib, pi0):
    """The context window is read per KV-group only while that is cheaper
    than materialising score rows; the baseline sits on the score side."""
    runs = _diffusion(pi0.action_expert, pi0.vlm, 800, 50, 1, 14)
    attn, count = next(run for run in runs if run[0].label == "attention")
    assert count == pi0.action_expert.num_layers
    # 2*(2*50*2048 + [2*800*256 + 4*8*50*800] + [2*50*256 + 4*8*50*50])
    assert attn.bytes == 4_000_000
    assert attn.flops == 4 * 50 * 850 * 2048


def test_expert_over_kv_heads_that_do_not_divide_its_query_heads():
    """The expert's 8 query heads over a VLM cache of 3 KV heads form
    ceil(8 / 3) = 3 groups, and broadcast is the cheaper read of both
    windows, so each window's group count sets its bytes."""
    expert = TransformerConfig(name="expert", num_layers=1, hidden_size=64,
                               intermediate_size=64, num_ffi=2,
                               num_q_heads=8, num_kv_heads=2, head_dim=16)
    vlm = TransformerConfig(name="vlm", num_layers=1, hidden_size=96,
                            intermediate_size=96, num_ffi=2, num_q_heads=6,
                            num_kv_heads=3, head_dim=16)
    runs = _expert_layer(expert, 10, 100, 50, vlm.kv_width, vlm.num_kv_heads)
    attn = next(op for op, _ in runs if op.label == "attention")
    # 2*(2*10*128 + 3*2*100*48 + 4*2*10*32 + 2*50*48): query and output,
    # the prefix window in 3 groups, the expert's own window in 4 groups
    # (8 / 2 heads), and the history streamed once.
    assert attn.bytes == 2 * (2_560 + 28_800 + 2_560 + 4_800) == 77_440
    assert attn.flops == 4 * 10 * (100 + 10 + 50) * 128


def test_diffusion_is_linear_in_steps(lib, pi0):
    one = totals(_diffusion(pi0.action_expert, pi0.vlm, 800, 50, 1, 14))
    ten = totals(_diffusion(pi0.action_expert, pi0.vlm, 800, 50, 10, 14))
    assert ten == (10 * one[0], 10 * one[1])


def test_diffusion_zero_steps_is_empty(pi0):
    assert _diffusion(pi0.action_expert, pi0.vlm, 800, 50, 0, 14) == []


# --- Decode kernels ---------------------------------------------------------

def test_decode_step_totals(lib):
    """One autoregressive token is a parallel decode of one."""
    _, nbytes = totals(parallel_decode_runs(lib.component("gemma-2b"), 1, 800))
    assert nbytes == 3_981_210_912


def test_parallel_decode_layer_totals(lib):
    gemma = lib.component("gemma-2b")
    flops, nbytes = totals(parallel_decode_runs(gemma, 700, 800))
    assert flops // gemma.num_layers == 162_742_272_000
    assert nbytes // gemma.num_layers == 339_605_760
    flops, nbytes = totals(parallel_decode_runs(gemma, 140, 800))
    assert flops // gemma.num_layers == 31_906_201_600
    assert nbytes // gemma.num_layers == 243_482_880


# --- Full pipeline ----------------------------------------------------------

def test_pipeline_phase_totals(pi0):
    runs = phase_runs(pi0)
    assert totals(runs[VISION]) == (709_452_103_680, 1_670_550_528)
    assert totals(runs[VLM]) == (3_265_265_664_000, 5_452_922_880)
    assert totals(runs[ACTION]) == (374_124_544_000, 7_310_614_880)


def test_pipeline_contains_projector(pi0):
    projector = [run for run in step_runs(pi0)
                 if run[0].label == "mm_projector"]
    assert len(projector) == 1
    op, count = projector[0]
    assert count == 1
    assert op.phase == VISION
    assert op.flops == 2 * 768 * 2048 * 1152


def test_pipeline_is_sum_of_its_phases(pi0):
    graph = pipeline_graph(pi0)
    assert totals(graph.ops)[1] == sum(
        totals(graph.subgraph(ph).ops)[1] for ph in (VISION, VLM, ACTION))


def test_autoregressive_pipeline_decodes_each_action_token(pi0):
    ar = replace(pi0, action_expert=None, decoding_mode=AUTOREGRESSIVE)
    action = phase_runs(ar)[ACTION]
    step = parallel_decode_runs(pi0.vlm, 1, 800)
    assert action == [(op, 700 * count) for op, count in step]
    assert action == token_decode_runs(
        parallel_decode_runs(pi0.vlm, 1, 800), 700)
    flops, nbytes = totals(step)
    assert totals(action) == (700 * flops, 700 * nbytes)


def test_parallel_pipeline_uses_one_forward(pi0):
    par = replace(pi0, action_expert=None,
                  decoding_mode=AUTOREGRESSIVE_PARALLEL)
    action = phase_runs(par)[ACTION]
    assert totals(action)[0] == \
        totals(parallel_decode_runs(pi0.vlm, 700, 800))[0]


def test_phase_builds_give_each_builder_the_values_it_reads(pi0):
    """One ``(builder, args)`` per phase, in pipeline order; the decoders
    read neither the action expert nor the denoising steps."""
    history = 9 * 768  # camera tokens of the 9 earlier steps
    builds = phase_builds(pi0, context_timestep=10)
    assert list(builds) == [VISION, VLM, ACTION]
    assert builds == {
        VISION: (vision_runs, (pi0.vision_encoder, 3, 256, 2048)),
        VLM: (prefill_runs, (pi0.vlm, 800, history)),
        ACTION: (diffusion_runs, (
            (_expert_layer, (pi0.action_expert, 50, 800, history, 256, 1)),
            pi0.action_expert, 50, 10, 14)),
    }
    decoders = {
        # Token decoding repeats the one-token step, a nested key.
        AUTOREGRESSIVE: (token_decode_runs, (
            (parallel_decode_runs, (pi0.vlm, 1, 800)), 700)),
        AUTOREGRESSIVE_PARALLEL: (parallel_decode_runs, (pi0.vlm, 700, 800)),
    }
    for mode, action in decoders.items():
        spec = replace(pi0, action_expert=None, decoding_mode=mode)
        assert phase_builds(spec)[ACTION] == action


def test_long_context_grows_history(pi0):
    """At timestep t the fresh prefix attends (t-1) steps of cached camera
    tokens and the expert streams that history once per denoise pass."""
    base, later = step_runs(pi0, 1), step_runs(pi0, 10)
    assert totals(base)[1] == totals(step_runs(pi0))[1]
    assert totals(later)[1] > totals(base)[1]
    assert totals(phase_runs(pi0, 10)[VISION])[1] == \
        totals(phase_runs(pi0, 1)[VISION])[1]  # encoding itself is unchanged


def test_pipeline_kernel_counts(pi0):
    """Kernels launched per control step, and the few distinct operators
    they are runs of."""
    ar = replace(pi0, action_expert=None, decoding_mode=AUTOREGRESSIVE)
    for spec, kernels, distinct in ((pi0, 1_750, 25), (ar, 88_490, 21)):
        runs = step_runs(spec)
        assert sum(count for _, count in runs) == kernels
        assert len(runs) == distinct


def test_layer_builders_repeat_one_layer(lib, pi0):
    """Every layer operator is one run whose count is the layer count; the
    unfused up projections of a generation layer are equal, so the builder
    folds them into one run."""
    gemma = lib.component("gemma-2b")
    siglip = lib.component("siglip-so400m")
    cases = (
        (prefill_runs(gemma, 800), gemma.num_layers, {}),
        (parallel_decode_runs(gemma, 50, 800), gemma.num_layers,
         {"ffn_up": gemma.num_ffi * gemma.num_layers}),
        (vision_runs(siglip, 3, 256, 2048), siglip.num_layers,
         {"patch_embed": 1, "mm_projector": 1}),
        (_diffusion(pi0.action_expert, pi0.vlm, 800, 50, 1, 14),
         pi0.action_expert.num_layers,
         {"action_in_proj": 1, "action_out_proj": 1}),
    )
    for runs, layers, special in cases:
        for op, count in runs:
            assert count == special.get(op.label, layers), op.label


def test_a_graph_keeps_its_nonzero_runs_as_built():
    a, b = matmul_op(1, 2, 3, label="a"), matmul_op(1, 2, 3, label="b")
    graph = OperatorGraph(((a, 2), (b, 0), (b, 1), (a, 3)))
    assert graph.ops == ((a, 2), (b, 1), (a, 3))
    assert OperatorGraph(graph.ops + graph.ops).ops == graph.ops + graph.ops
    with pytest.raises(ValueError, match="count"):
        OperatorGraph(((a, -1),))


# Recorded before the part builders returned plain runs; the runs of every
# pipeline must not change.
RUNS_DIGEST = "cff51b6e71c2dbe28a3f2180121b18c76e52289ea84b2f52f46a31f81070f949"


def test_pipeline_runs_digest(lib):
    """SHA-256 of the runs of every preset model, the scaled family among
    them, in every decoding variant, stateless and at two context
    timesteps."""
    assert set(SCALED_FAMILY) <= set(lib.models)
    specs = [lib.model(name) for name in sorted(lib.models)]
    digest = hashlib.sha256()
    for spec in specs:
        for variant in DECODING_VARIANTS:
            variant_spec = decoding_variant_spec(spec, variant)
            for timestep in (None, 10, 1000):
                runs = [(op.label, op.flops, op.bytes, op.phase, count)
                        for op, count in step_runs(variant_spec, timestep)]
                digest.update(repr(runs).encode())
    assert digest.hexdigest() == RUNS_DIGEST


# --- The graph API's readers ------------------------------------------------

GRAPH_API = ("OperatorGraph", "pipeline_graph", "graph_time", "graph_oi",
             "boundedness", "subgraph")


def test_only_golden_names_the_graph_api():
    """Outside ``opgraph`` and ``roofline``, which define the graph API,
    only ``golden`` (for T4) names it, so deleting it touches no other
    module.  A module reaches a name of another one by importing it or as
    an attribute of that module, so the scan reads imported names,
    attributes of ``opgraph`` and ``roofline``, and any ``.subgraph``:
    ``boundedness`` is also a field and a parameter of
    ``ScenarioResult``."""
    package = Path(__file__).resolve().parents[1] / "src" / "vla_roofline"
    readers = {}
    for path in sorted(package.glob("*.py")):
        if path.name in ("opgraph.py", "roofline.py"):
            continue
        named = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                named.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Attribute) and (
                    node.attr == "subgraph"
                    or isinstance(node.value, ast.Name)
                    and node.value.id in ("opgraph", "roofline")):
                named.add(node.attr)
        if named & set(GRAPH_API):
            readers[path.name] = sorted(named & set(GRAPH_API))
    assert list(readers) == ["golden.py"], readers
