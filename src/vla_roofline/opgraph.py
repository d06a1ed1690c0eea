"""Operator graphs for every forward-pass workload in the pipeline.

Each workload (vision encode, VLM prefill, and the action phase as token
decode, parallel decode or diffusion) lowers to run-length ``(Operator,
count)`` pairs: an :class:`Operator` record carries exact FLOP and HBM-byte
counts for one kernel launch, and its count says how often the workload
launches it (once per layer, per denoising pass, per decoded token).  A
control step is a handful of distinct layer operators repeated thousands of
times, so a graph holds a few dozen runs however many kernels it models, and
the roofline layer prices each run once, times its count.  Because operators
are priced independently, *where* bytes are attributed matters as much as how
many there are.  Three kernel conventions are used, reflecting how these
phases are actually fused on current inference stacks:

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

The prefill and both decoders attend the tokens of :func:`cached_tokens`,
the one token ledger, whose KV the footprint in :mod:`roofline` keeps.

All counts are exact integers; a matmul of shape (m, k) x (k, n) costs
``2*m*n*k`` FLOPs and ``p*(m*k + k*n + m*n)`` bytes at ``p`` bytes per
element.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .record import Record, set_field
from .workload import (
    AUTOREGRESSIVE,
    DIFFUSION,
    TransformerConfig,
    VlaModelSpec,
)

VISION = "vision"
VLM = "vlm"
ACTION = "action"
PHASES = (VISION, VLM, ACTION)


class Operator(Record):
    """One kernel launch: a label, exact FLOPs/bytes, and its pipeline phase."""

    __slots__ = ("label", "flops", "bytes", "phase")

    def __init__(self, label: str, flops: int, bytes: int, phase: str) -> None:
        set_field(self, "label", label)
        set_field(self, "flops", flops)
        set_field(self, "bytes", bytes)
        set_field(self, "phase", phase)
        if self.flops < 0 or self.bytes < 0:
            raise ValueError(f"{self.label}: flops and bytes must be >= 0")
        if self.phase not in PHASES:
            raise ValueError(f"{self.label}: phase must be one of {PHASES}")


Run = tuple[Operator, int]


class OperatorGraph(Record):
    """``ops`` holds the non-zero ``(operator, count)`` runs of its input,
    as built and in input order; a negative count is an error."""

    __slots__ = ("ops",)

    def __init__(self, ops: Iterable[Run] = ()) -> None:
        runs = []
        for op, count in ops:
            if count < 0:
                raise ValueError(f"{op.label}: count must be >= 0")
            if count:
                runs.append((op, count))
        # tuple() of a list, not of a generator: a generator's tuple is
        # allocated at one size and shrunk, so freeing it stocks the
        # interpreter's per-size tuple free lists with sizes that are never
        # reused, about 1 MB of peak memory over many in-process calls.
        set_field(self, "ops", tuple(runs))

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


def _qkv_runs(cfg: TransformerConfig, q_len: int, phase: str) -> list[Run]:
    p = cfg.precision_bytes
    q = matmul_op(q_len, cfg.q_width, cfg.hidden_size, p, "q_proj", phase)
    k = matmul_op(q_len, cfg.kv_width, cfg.hidden_size, p, "k_proj", phase)
    v = matmul_op(q_len, cfg.kv_width, cfg.hidden_size, p, "v_proj", phase)
    return [(q, 1), (k, 1), (v, 1)]


def _ffn_runs(cfg: TransformerConfig, q_len: int, phase: str,
              fuse_gate: bool) -> list[Run]:
    """The FFN of one layer.  Its ``num_ffi`` up projections fold into one
    run at the first one's position: ``ffn_up`` times ``num_ffi`` unfused,
    or ``ffn_up`` then ``ffn_up_fused`` times ``num_ffi - 1`` fused."""
    p = cfg.precision_bytes
    h, inter = cfg.hidden_size, cfg.intermediate_size
    up = matmul_op(q_len, inter, h, p, "ffn_up", phase)
    if not fuse_gate:
        runs = [(up, cfg.num_ffi)]
    else:
        runs = [(up, 1)]
        if cfg.num_ffi > 1:
            # Combined with the first up projection in-flight: streams its
            # input and weights, writes nothing.
            runs.append((Operator("ffn_up_fused", 2 * q_len * h * inter,
                                  p * (q_len * h + h * inter), phase),
                         cfg.num_ffi - 1))
    runs.append((matmul_op(q_len, h, inter, p, "ffn_down", phase), 1))
    return runs


def _context_layer(cfg: TransformerConfig, q_len: int, prefix: int,
                   phase: str) -> list[Run]:
    """One decoder layer under context (prefill-style) kernels."""
    p = cfg.precision_bytes
    runs = _qkv_runs(cfg, q_len, phase)
    flops = 4 * q_len * (prefix + q_len) * cfg.q_width + 2 * q_len * cfg.q_width * cfg.hidden_size
    data = p * 2 * prefix * cfg.kv_width  # pre-existing prefix KV only
    data += p * (q_len * cfg.q_width + cfg.q_width * cfg.hidden_size
                 + q_len * cfg.hidden_size)  # fused output projection
    runs.append((Operator("attn_out", flops, data, phase), 1))
    runs.extend(_ffn_runs(cfg, q_len, phase, fuse_gate=True))
    return runs


def _generation_layer(cfg: TransformerConfig, q_len: int,
                      prefix: int) -> list[Run]:
    """One action-phase decoder layer under generation kernels."""
    p = cfg.precision_bytes
    total = prefix + q_len
    runs = _qkv_runs(cfg, q_len, ACTION)
    flops = 4 * q_len * total * cfg.q_width + 2 * q_len * cfg.q_width * cfg.hidden_size
    data = p * (2 * q_len * cfg.q_width          # query re-read, output write
                + 2 * total * cfg.kv_width       # full cache, fresh rows included
                + cfg.num_q_heads * q_len * total)  # score-row spill
    data += p * (q_len * cfg.q_width + cfg.q_width * cfg.hidden_size
                 + q_len * cfg.hidden_size)
    runs.append((Operator("attn_out", flops, data, ACTION), 1))
    runs.extend(_ffn_runs(cfg, q_len, ACTION, fuse_gate=False))
    return runs


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
                  history: int, ctx_kv_width: int,
                  ctx_kv_heads: int) -> list[Run]:
    """One action-expert layer cross-attending cached VLM context."""
    if prefix < 0 or history < 0:
        raise ValueError("context token counts must be >= 0")
    p = cfg.precision_bytes
    runs = _qkv_runs(cfg, q_len, ACTION)

    own_groups = cfg.num_q_heads // cfg.num_kv_heads
    ctx_groups = max(1, -(-cfg.num_q_heads // ctx_kv_heads))
    elems = 2 * q_len * cfg.q_width  # query in, attention output out
    elems += _kv_window_elems(prefix, ctx_kv_width, ctx_groups,
                              cfg.num_q_heads, q_len)
    elems += _kv_window_elems(q_len, cfg.kv_width, own_groups,
                              cfg.num_q_heads, q_len)
    elems += 2 * history * ctx_kv_width  # old context streamed exactly once
    flops = 4 * q_len * (prefix + q_len + history) * cfg.q_width
    runs.append((Operator("attention", flops, p * elems, ACTION), 1))

    runs.append((matmul_op(q_len, cfg.hidden_size, cfg.q_width, p, "o_proj",
                           ACTION), 1))
    runs.extend(_ffn_runs(cfg, q_len, ACTION, fuse_gate=True))
    return runs


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
        (op, count * cfg.num_layers)
        for op, count in _context_layer(cfg, tokens, 0, VISION)]


def prefill_runs(cfg: TransformerConfig, q_len: int,
                 kv_prefix_len: int = 0) -> list[Run]:
    """VLM prefill of ``q_len`` fresh tokens over an optional prefix."""
    if q_len < 1 or kv_prefix_len < 0:
        raise ValueError("need q_len >= 1 and kv_prefix_len >= 0")
    layer = _context_layer(cfg, q_len, kv_prefix_len, VLM)
    return [(op, count * cfg.num_layers) for op, count in layer]


def parallel_decode_runs(cfg: TransformerConfig, num_action_tokens: int,
                         kv_prefix_len: int) -> list[Run]:
    """All ``num_action_tokens`` decoded in one action-phase forward."""
    if num_action_tokens < 1 or kv_prefix_len < 0:
        raise ValueError("need num_action_tokens >= 1 and kv_prefix_len >= 0")
    layer = _generation_layer(cfg, num_action_tokens, kv_prefix_len)
    return [(op, count * cfg.num_layers) for op, count in layer]


def token_decode_runs(step: list[Run], num_action_tokens: int) -> list[Run]:
    """Autoregressive decoding: ``step``, the runs of one single-token
    forward (``parallel_decode_runs(cfg, 1, kv_prefix_len)``), once per
    action token."""
    return [(op, count * num_action_tokens) for op, count in step]


def diffusion_runs(layer: list[Run], cfg_action: TransformerConfig,
                   chunk_size: int, steps: int,
                   action_dof: int) -> list[Run]:
    """Flow-matching action generation: ``steps`` identical denoising passes.

    Each pass projects the noisy chunk in (``action_dof -> hidden``), runs
    every expert layer, and projects actions out.  ``layer`` holds the runs
    of one expert layer over the chunk (see :func:`_expert_layer`), which
    attends the cached VLM prefix and any older context.  Passes are
    identical, so the cost is exactly linear in ``steps``.
    """
    if chunk_size < 1 or action_dof < 1 or steps < 0:
        raise ValueError("need chunk_size >= 1, action_dof >= 1, steps >= 0")
    if steps == 0:
        return []
    p = cfg_action.precision_bytes
    in_proj = matmul_op(chunk_size, cfg_action.hidden_size, action_dof, p,
                        "action_in_proj", ACTION)
    out_proj = matmul_op(chunk_size, action_dof, cfg_action.hidden_size, p,
                         "action_out_proj", ACTION)
    layers = steps * cfg_action.num_layers
    return ([(in_proj, steps)] + [(op, count * layers) for op, count in layer]
            + [(out_proj, steps)])


# ---------------------------------------------------------------------------
# Full-pipeline composition
# ---------------------------------------------------------------------------


def cached_tokens(spec: VlaModelSpec,
                  context_timestep: Optional[int] = None) -> int:
    """The token ledger: the VLM tokens whose KV control step
    ``context_timestep`` holds, the fresh prefix plus every earlier step's
    camera tokens; ``None`` (or 1) is the stateless baseline."""
    t = 1 if context_timestep is None else context_timestep
    if t < 1:
        raise ValueError("context_timesteps must be >= 1")
    return spec.prefix_tokens() + spec.vision_tokens() * (t - 1)


def vision_runs(encoder: TransformerConfig, num_cameras: int,
                tokens_per_image: int, vlm_hidden: int) -> list[Run]:
    """The vision phase: every camera image encoded, then bridged from
    vision width to the VLM's ``vlm_hidden``."""
    runs = vit_encode_runs(encoder, num_cameras, tokens_per_image)
    if num_cameras > 0:
        runs.append((matmul_op(num_cameras * tokens_per_image, vlm_hidden,
                               encoder.hidden_size, encoder.precision_bytes,
                               "mm_projector", VISION), 1))
    return runs


def phase_builds(spec: VlaModelSpec, context_timestep: Optional[int] = None,
                 ) -> dict[str, tuple]:
    """``{phase: (builder, args)}`` in ``PHASES`` order: :func:`build` of
    that key returns the phase's runs, and ``args`` are exactly the values
    that builder reads.  A nested ``(builder, args)`` key names a layer the
    builder repeats: diffusion's expert layer, token decoding's one-token
    step.  Each builder is looked up when this is called.

    The VLM prefills the fresh prefix over the rest of :func:`cached_tokens`,
    and the action phase attends all of them by the spec's decoding mode.
    """
    prefix = spec.prefix_tokens()
    cached = cached_tokens(spec, context_timestep)
    history = cached - prefix
    if spec.decoding_mode == DIFFUSION:
        layer = (_expert_layer, (spec.action_expert, spec.chunk_size, prefix,
                                 history, spec.vlm.kv_width,
                                 spec.vlm.num_kv_heads))
        action = (diffusion_runs, (layer, spec.action_expert, spec.chunk_size,
                                   spec.denoise_steps, spec.action_dof))
    elif spec.decoding_mode == AUTOREGRESSIVE:
        step = (parallel_decode_runs, (spec.vlm, 1, cached))
        action = (token_decode_runs, (step, spec.action_tokens()))
    else:  # VlaModelSpec admits no other mode than the three decoders.
        action = (parallel_decode_runs, (spec.vlm, spec.action_tokens(),
                                         cached))
    return {
        VISION: (vision_runs, (spec.vision_encoder, spec.num_cameras,
                               spec.tokens_per_image, spec.vlm.hidden_size)),
        VLM: (prefill_runs, (spec.vlm, prefix, history)),
        ACTION: action,
    }


def build(key: tuple, memo: dict) -> tuple[list[Run], dict]:
    """``memo[key]``, built if missing: the non-zero runs of a
    :func:`phase_builds` key and a dict for their figures.  No builder takes
    a tuple argument, so a tuple argument is a nested key, built the same
    way, and the builder gets its runs."""
    entry = memo.get(key)
    if entry is None:
        builder, args = key
        runs = builder(*[build(arg, memo)[0] if type(arg) is tuple else arg
                         for arg in args])
        entry = memo[key] = ([run for run in runs if run[1]], {})
    return entry


def pipeline_graph(spec: VlaModelSpec,
                   context_timestep: Optional[int] = None) -> OperatorGraph:
    """The complete control-step graph: vision, VLM prefill, action phase.

    ``context_timestep`` enables the long-context regime: the fresh prefix
    attends the camera history of :func:`cached_tokens`, and the action
    phase attends all of it.  ``None`` (or 1) is the stateless baseline.
    """
    return OperatorGraph(
        run for key in phase_builds(spec, context_timestep).values()
        for run in build(key, {})[0])
