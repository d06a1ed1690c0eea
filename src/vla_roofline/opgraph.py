"""Operator graphs for every forward-pass workload in the pipeline.

Each workload (vision encode, prefill, decode, parallel decode, diffusion)
lowers to run-length ``(Operator, count)`` pairs: an :class:`Operator` record
carries exact FLOP and HBM-byte counts for one kernel launch, and its count
says how often the workload launches it (once per layer, per denoising pass,
per decoded token).  A control step is a handful of distinct layer operators
repeated thousands of times, so a graph holds a few dozen runs however many
kernels it models, and the roofline layer prices each distinct operator once,
times its count.  Because operators are priced independently, *where* bytes
are attributed matters as much as how many there are.  Three kernel
conventions are used, reflecting how these phases are actually fused on
current inference stacks:

Context kernels (vision encode, prefill)
    Q/K/V projections are ordinary matmuls (inputs + weights + outputs all
    stream through HBM).  Attention and the output projection execute as one
    fused operator: the fresh K/V tiles are consumed while still resident, so
    the only attention traffic is the *pre-existing* prefix KV, and the
    attention output feeds the output projection without a round trip.  With
    a gated FFN the extra up projection's result is combined in-flight, so it
    streams inputs and weights but writes nothing.

Generation kernels (token decode, parallel decode)
    Q/K/V projections stream as above, but the fused attention + output
    projection re-reads its query block, streams the *entire* KV cache
    (prefix plus the tokens being decoded), and spills one score row per
    query head.  No FFN fusion: at decode shapes every FFN matmul streams
    inputs, weights and outputs.

Expert kernels (diffusion action expert)
    Attention is its own operator (the output projection streams separately).
    The expert cross-attends cached context at that cache's native width; for
    grouped-query layouts each KV window is charged the cheaper of re-reading
    KV per query-head group or reading it once and materialising the score
    matrix.  Old context beyond the fresh prefix is streamed exactly once.
    The gated FFN fuses like a context kernel.

All counts are exact integers; a matmul of shape (m, k) x (k, n) costs
``2*m*n*k`` FLOPs and ``p*(m*k + k*n + m*n)`` bytes at ``p`` bytes per
element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .workload import (
    AUTOREGRESSIVE,
    DIFFUSION,
    TransformerConfig,
    VlaModelSpec,
    kv_bytes_per_token,
)

VISION = "vision"
VLM = "vlm"
ACTION = "action"
PHASES = (VISION, VLM, ACTION)


@dataclass(frozen=True)
class Operator:
    """One kernel launch: a label, exact FLOPs/bytes, and its pipeline phase."""

    label: str
    flops: int
    bytes: int
    phase: str

    def __post_init__(self) -> None:
        if self.flops < 0 or self.bytes < 0:
            raise ValueError(f"{self.label}: flops and bytes must be >= 0")
        if self.phase not in PHASES:
            raise ValueError(f"{self.label}: phase must be one of {PHASES}")


Run = tuple[Operator, int]


@dataclass(frozen=True)
class OperatorGraph:
    """``ops`` holds ``(operator, count)`` runs.

    Construction takes any iterable of runs, merges equal operators into one
    run, kept where the operator first appears, and drops runs whose count
    is zero.
    """

    ops: tuple[Run, ...] = ()

    def __post_init__(self) -> None:
        counts: dict[Operator, int] = {}
        for op, count in self.ops:
            if count < 0:
                raise ValueError(f"{op.label}: count must be >= 0")
            counts[op] = counts.get(op, 0) + count
        # tuple() of a list, not of a generator: a generator's tuple is
        # allocated at one size and shrunk, so freeing it stocks the
        # interpreter's per-size tuple free lists with sizes that are never
        # reused, about 1 MB of peak memory over many in-process calls.
        object.__setattr__(self, "ops", tuple(
            [(op, count) for op, count in counts.items() if count]))

    @property
    def total_flops(self) -> int:
        return sum(op.flops * count for op, count in self.ops)

    @property
    def total_bytes(self) -> int:
        return sum(op.bytes * count for op, count in self.ops)

    def subgraph(self, phase: str) -> "OperatorGraph":
        """The runs of one pipeline phase."""
        return OperatorGraph(run for run in self.ops if run[0].phase == phase)


def matmul_op(m: int, n: int, k: int, p: int = 2, label: str = "matmul",
              phase: str = VLM) -> Operator:
    """A dense (m, k) x (k, n) matmul streaming inputs, weights and outputs.

    ``m == 0`` degenerates to a pure weight read: zero FLOPs, ``p*k*n`` bytes.
    """
    if m < 0 or n < 1 or k < 1:
        raise ValueError(f"{label}: need m >= 0, n >= 1, k >= 1")
    return Operator(label, 2 * m * n * k, p * (m * k + k * n + m * n), phase)


# ---------------------------------------------------------------------------
# Decoder layers under the three kernel conventions
# ---------------------------------------------------------------------------


def _qkv_ops(cfg: TransformerConfig, q_len: int, phase: str) -> list[Operator]:
    p = cfg.precision_bytes
    return [
        matmul_op(q_len, cfg.q_width, cfg.hidden_size, p, "q_proj", phase),
        matmul_op(q_len, cfg.kv_width, cfg.hidden_size, p, "k_proj", phase),
        matmul_op(q_len, cfg.kv_width, cfg.hidden_size, p, "v_proj", phase),
    ]


def _ffn_ops(cfg: TransformerConfig, q_len: int, phase: str,
             fuse_gate: bool) -> list[Operator]:
    p = cfg.precision_bytes
    h, inter = cfg.hidden_size, cfg.intermediate_size
    ops = [matmul_op(q_len, inter, h, p, "ffn_up", phase)]
    for _ in range(cfg.num_ffi - 1):
        if fuse_gate:
            # Combined with the first up projection in-flight: streams its
            # input and weights, writes nothing.
            ops.append(Operator("ffn_up_fused", 2 * q_len * h * inter,
                                p * (q_len * h + h * inter), phase))
        else:
            ops.append(matmul_op(q_len, inter, h, p, "ffn_up", phase))
    ops.append(matmul_op(q_len, h, inter, p, "ffn_down", phase))
    return ops


def _context_layer(cfg: TransformerConfig, q_len: int, prefix: int,
                   phase: str) -> list[Operator]:
    """One decoder layer under context (prefill-style) kernels."""
    p = cfg.precision_bytes
    ops = _qkv_ops(cfg, q_len, phase)
    flops = 4 * q_len * (prefix + q_len) * cfg.q_width + 2 * q_len * cfg.q_width * cfg.hidden_size
    data = p * 2 * prefix * cfg.kv_width  # pre-existing prefix KV only
    data += p * (q_len * cfg.q_width + cfg.q_width * cfg.hidden_size
                 + q_len * cfg.hidden_size)  # fused output projection
    ops.append(Operator("attn_out", flops, data, phase))
    ops.extend(_ffn_ops(cfg, q_len, phase, fuse_gate=True))
    return ops


def _generation_layer(cfg: TransformerConfig, q_len: int, prefix: int,
                      phase: str) -> list[Operator]:
    """One decoder layer under generation (decode-style) kernels."""
    p = cfg.precision_bytes
    total = prefix + q_len
    ops = _qkv_ops(cfg, q_len, phase)
    flops = 4 * q_len * total * cfg.q_width + 2 * q_len * cfg.q_width * cfg.hidden_size
    data = p * (2 * q_len * cfg.q_width          # query re-read, output write
                + 2 * total * cfg.kv_width       # full cache, fresh rows included
                + cfg.num_q_heads * q_len * total)  # score-row spill
    data += p * (q_len * cfg.q_width + cfg.q_width * cfg.hidden_size
                 + q_len * cfg.hidden_size)
    ops.append(Operator("attn_out", flops, data, phase))
    ops.extend(_ffn_ops(cfg, q_len, phase, fuse_gate=False))
    return ops


def _kv_window_elems(tokens: int, kv_width: int, groups: int,
                     n_q: int, q_len: int) -> int:
    """Cheaper of the two grouped-query read strategies for one KV window.

    Either re-read the window once per query-head group (broadcast) or read
    it once and materialise the score matrix for every query head.
    """
    if tokens == 0:
        return 0
    broadcast = groups * 2 * tokens * kv_width
    materialize = 2 * tokens * kv_width + 4 * n_q * q_len * tokens
    return min(broadcast, materialize)


def _expert_layer(cfg: TransformerConfig, q_len: int, prefix: int,
                  history: int, ctx_kv_width: int, ctx_kv_heads: int,
                  phase: str) -> list[Operator]:
    """One action-expert layer cross-attending cached VLM context."""
    p = cfg.precision_bytes
    ops = _qkv_ops(cfg, q_len, phase)

    own_groups = cfg.num_q_heads // cfg.num_kv_heads
    ctx_groups = max(1, -(-cfg.num_q_heads // ctx_kv_heads))
    elems = 2 * q_len * cfg.q_width  # query in, attention output out
    elems += _kv_window_elems(prefix, ctx_kv_width, ctx_groups,
                              cfg.num_q_heads, q_len)
    elems += _kv_window_elems(q_len, cfg.kv_width, own_groups,
                              cfg.num_q_heads, q_len)
    elems += 2 * history * ctx_kv_width  # old context streamed exactly once
    flops = 4 * q_len * (prefix + q_len + history) * cfg.q_width
    ops.append(Operator("attention", flops, p * elems, phase))

    ops.append(matmul_op(q_len, cfg.hidden_size, cfg.q_width, p, "o_proj", phase))
    ops.extend(_ffn_ops(cfg, q_len, phase, fuse_gate=True))
    return ops


# ---------------------------------------------------------------------------
# Workload runs
# ---------------------------------------------------------------------------


def vit_encode_runs(cfg: TransformerConfig, num_images: int,
                    tokens_per_image: int = 256) -> list[Run]:
    """Vision encoding of all camera images in a single batched forward.

    The images are concatenated into one ``num_images * tokens_per_image``
    token batch (weights stream once, attention is joint across the batch).
    Requires ``cfg.patch_input_dim``; zero images yield no runs.
    """
    if cfg.patch_input_dim is None:
        raise ValueError(f"{cfg.name}: vision encoding needs patch_input_dim")
    if num_images < 0 or tokens_per_image < 1:
        raise ValueError("need num_images >= 0 and tokens_per_image >= 1")
    if num_images == 0:
        return []
    tokens = num_images * tokens_per_image
    embed = matmul_op(tokens, cfg.hidden_size, cfg.patch_input_dim,
                      cfg.precision_bytes, "patch_embed", VISION)
    return [(embed, 1)] + [
        (op, cfg.num_layers) for op in _context_layer(cfg, tokens, 0, VISION)]


def prefill_runs(cfg: TransformerConfig, q_len: int, kv_prefix_len: int = 0,
                 phase: str = VLM) -> list[Run]:
    """Prefill of ``q_len`` fresh tokens over an optional existing prefix."""
    if q_len < 1 or kv_prefix_len < 0:
        raise ValueError("need q_len >= 1 and kv_prefix_len >= 0")
    layer = _context_layer(cfg, q_len, kv_prefix_len, phase)
    return [(op, cfg.num_layers) for op in layer]


def parallel_decode_runs(cfg: TransformerConfig, num_action_tokens: int,
                         kv_prefix_len: int, phase: str = VLM) -> list[Run]:
    """All ``num_action_tokens`` decoded in one generation-kernel forward."""
    if num_action_tokens < 1 or kv_prefix_len < 0:
        raise ValueError("need num_action_tokens >= 1 and kv_prefix_len >= 0")
    layer = _generation_layer(cfg, num_action_tokens, kv_prefix_len, phase)
    return [(op, cfg.num_layers) for op in layer]


def diffusion_runs(cfg_action: TransformerConfig, vlm_prefix_tokens: int,
                   vlm_kv_bytes_per_token: int, chunk_size: int, steps: int,
                   action_dof: int, *,
                   context_cfg: Optional[TransformerConfig] = None,
                   history_tokens: int = 0) -> list[Run]:
    """Flow-matching action generation: ``steps`` identical denoising passes.

    Each pass projects the noisy chunk in (``action_dof -> hidden``), runs
    every expert layer jointly attending the cached VLM prefix (and any
    accumulated ``history_tokens`` of older context), and projects actions
    out.  Passes are identical, so the cost is exactly linear in ``steps``.

    ``context_cfg`` gives the cached context's KV geometry (width and head
    count; normally the VLM config).  Without it the per-layer context width
    is recovered from ``vlm_kv_bytes_per_token`` assuming the stacks are
    depth-matched, which is exact for the baseline policy.
    """
    if vlm_prefix_tokens < 0 or history_tokens < 0:
        raise ValueError("context token counts must be >= 0")
    if chunk_size < 1 or action_dof < 1 or steps < 0:
        raise ValueError("need chunk_size >= 1, action_dof >= 1, steps >= 0")
    if steps == 0:
        return []
    p = cfg_action.precision_bytes
    if context_cfg is not None:
        ctx_kv_width = context_cfg.kv_width
        ctx_kv_heads = context_cfg.num_kv_heads
    else:
        ctx_kv_width = vlm_kv_bytes_per_token // (2 * p * cfg_action.num_layers)
        ctx_kv_heads = cfg_action.num_kv_heads

    layer = _expert_layer(cfg_action, chunk_size, vlm_prefix_tokens,
                          history_tokens, ctx_kv_width, ctx_kv_heads, ACTION)
    in_proj = matmul_op(chunk_size, cfg_action.hidden_size, action_dof, p,
                        "action_in_proj", ACTION)
    out_proj = matmul_op(chunk_size, action_dof, cfg_action.hidden_size, p,
                         "action_out_proj", ACTION)
    layers = steps * cfg_action.num_layers
    return ([(in_proj, steps)] + [(op, layers) for op in layer]
            + [(out_proj, steps)])


# ---------------------------------------------------------------------------
# Full-pipeline composition
# ---------------------------------------------------------------------------


def pipeline_graph(spec: VlaModelSpec,
                   context_timestep: Optional[int] = None) -> OperatorGraph:
    """The complete control-step graph: vision, VLM prefill, action phase.

    ``context_timestep`` enables the long-context regime: at step ``t`` the
    VLM keeps the camera tokens of all ``t - 1`` earlier steps in cache, the
    fresh prefix attends that history, and the action phase attends the full
    accumulated context.  ``None`` (or 1) is the stateless baseline.
    """
    t = 1 if context_timestep is None else context_timestep
    if t < 1:
        raise ValueError("context_timestep must be >= 1")
    history = spec.vision_tokens() * (t - 1)
    prefix = spec.prefix_tokens()

    runs = vit_encode_runs(spec.vision_encoder, spec.num_cameras,
                           spec.tokens_per_image)
    if spec.num_cameras > 0:
        # Bridge from vision width to VLM width.
        runs.append((matmul_op(spec.vision_tokens(), spec.vlm.hidden_size,
                               spec.vision_encoder.hidden_size,
                               spec.vision_encoder.precision_bytes,
                               "mm_projector", VISION), 1))
    runs += prefill_runs(spec.vlm, prefix, history)
    if spec.decoding_mode == DIFFUSION:
        runs += diffusion_runs(
            spec.action_expert, prefix, kv_bytes_per_token(spec.vlm),
            spec.chunk_size, spec.denoise_steps, spec.action_dof,
            context_cfg=spec.vlm, history_tokens=history)
    elif spec.decoding_mode == AUTOREGRESSIVE:
        # One single-token forward per action token.
        step = parallel_decode_runs(spec.vlm, 1, prefix + history, ACTION)
        runs += [(op, count * spec.action_tokens()) for op, count in step]
    else:  # AUTOREGRESSIVE_PARALLEL; VlaModelSpec admits no other mode
        runs += parallel_decode_runs(
            spec.vlm, spec.action_tokens(), prefix + history, ACTION)
    # The one merge of all the parts' runs.
    return OperatorGraph(runs)
