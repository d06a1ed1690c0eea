"""Model architectures and closed-form size arithmetic.

A VLA (vision-language-action) policy is composed of up to three decoder-only
transformer stacks: a vision encoder, a VLM backbone, and an optional action
expert.  This module describes those stacks (:class:`TransformerConfig`),
their composition into a deployable policy (:class:`VlaModelSpec`), and the
closed-form parameter / weight / KV-cache arithmetic everything downstream is
built on.

Counting conventions (deliberately minimal, matmul weights only):

* attention contributes ``hidden * q_width`` for each of the Q and output
  projections plus ``hidden * kv_width`` for each of K and V,
* the FFN contributes ``(num_ffi + 1) * hidden * intermediate`` (one down
  projection plus ``num_ffi`` up projections; ``num_ffi == 2`` is the gated
  variant),
* a vision encoder additionally contributes ``patch_input_dim * hidden`` for
  the patch embedding.

Embedding tables, norms and biases are ignored; they are negligible at the
sizes modelled here and keeping the formula exact makes the arithmetic easy
to audit.
"""

from __future__ import annotations

from typing import Optional

from .record import Record, set_field

VALID_PRECISION_BYTES = (1, 2, 4)

# Decoding strategies for the action head.
DIFFUSION = "diffusion"
AUTOREGRESSIVE = "autoregressive"
AUTOREGRESSIVE_PARALLEL = "autoregressive_parallel"
DECODING_MODES = (DIFFUSION, AUTOREGRESSIVE, AUTOREGRESSIVE_PARALLEL)

# The largest integer a float holds exactly.  Phase pricing multiplies counts
# as integers, but wall sums, byte counts and footprints are read as floats
# once divided, so a larger count is rejected rather than priced inexactly.
MAX_COUNT = 2 ** 53


def check_count(owner: str, field: str, value: Optional[int]) -> None:
    """Raise ``ValueError`` if the count ``value`` exceeds ``MAX_COUNT``."""
    if value is not None and value > MAX_COUNT:
        raise ValueError(f"{owner}: {field} is too large (at most 2**53)")


class TransformerConfig(Record):
    """Shape of a single transformer stack.

    ``num_ffi`` is the number of FFN up projections feeding the activation:
    1 gives the classic two-matmul MLP, 2 the gated three-matmul variant.
    ``num_q_heads`` / ``num_kv_heads`` express grouped-query attention; the
    query width ``num_q_heads * head_dim`` may exceed ``hidden_size`` (the
    baseline action expert does exactly that).  ``patch_input_dim`` is the
    flattened patch size (channels * patch height * patch width) and is only
    set on vision encoders.
    """

    __slots__ = ("name", "num_layers", "hidden_size", "intermediate_size",
                 "num_ffi", "num_q_heads", "num_kv_heads", "head_dim",
                 "precision_bytes", "patch_input_dim", "_weight_bytes",
                 "_hash")

    def __init__(self, name: str, num_layers: int, hidden_size: int,
                 intermediate_size: int, num_ffi: int, num_q_heads: int,
                 num_kv_heads: int, head_dim: int, precision_bytes: int = 2,
                 patch_input_dim: Optional[int] = None) -> None:
        set_field(self, "name", name)
        set_field(self, "num_layers", num_layers)
        set_field(self, "hidden_size", hidden_size)
        set_field(self, "intermediate_size", intermediate_size)
        set_field(self, "num_ffi", num_ffi)
        set_field(self, "num_q_heads", num_q_heads)
        set_field(self, "num_kv_heads", num_kv_heads)
        set_field(self, "head_dim", head_dim)
        set_field(self, "precision_bytes", precision_bytes)
        set_field(self, "patch_input_dim", patch_input_dim)
        if self.precision_bytes not in VALID_PRECISION_BYTES:
            raise ValueError(
                f"{self.name}: precision_bytes must be one of "
                f"{VALID_PRECISION_BYTES}, got {self.precision_bytes}"
            )
        if self.num_layers < 0:
            raise ValueError(f"{self.name}: num_layers must be >= 0")
        for attr in ("hidden_size", "intermediate_size", "num_ffi",
                     "num_q_heads", "num_kv_heads", "head_dim"):
            if getattr(self, attr) < 1:
                raise ValueError(f"{self.name}: {attr} must be >= 1")
        if self.num_q_heads % self.num_kv_heads != 0:
            raise ValueError(
                f"{self.name}: num_q_heads ({self.num_q_heads}) must be a "
                f"multiple of num_kv_heads ({self.num_kv_heads})"
            )
        if self.patch_input_dim is not None and self.patch_input_dim < 1:
            raise ValueError(f"{self.name}: patch_input_dim must be >= 1")
        for attr in ("num_layers", "hidden_size", "intermediate_size",
                     "num_ffi", "num_q_heads", "num_kv_heads", "head_dim",
                     "patch_input_dim"):
            check_count(self.name, attr, getattr(self, attr))
        set_field(self, "_weight_bytes",
                  param_count(self) * self.precision_bytes)
        set_field(self, "_hash", hash(self._values(self)))

    def __hash__(self) -> int:
        # Memo keys hold stacks, so the field tuple is hashed once.
        return self._hash

    @property
    def q_width(self) -> int:
        """Total query/output projection width, ``num_q_heads * head_dim``."""
        return self.num_q_heads * self.head_dim

    @property
    def kv_width(self) -> int:
        """Total K (or V) projection width, ``num_kv_heads * head_dim``."""
        return self.num_kv_heads * self.head_dim


def param_count(cfg: TransformerConfig) -> int:
    """Matmul parameter count of one stack (see module docstring)."""
    attn = 2 * cfg.hidden_size * cfg.q_width + 2 * cfg.hidden_size * cfg.kv_width
    ffn = (cfg.num_ffi + 1) * cfg.hidden_size * cfg.intermediate_size
    total = cfg.num_layers * (attn + ffn)
    if cfg.patch_input_dim is not None:
        total += cfg.patch_input_dim * cfg.hidden_size
    return total


def weight_bytes(cfg: TransformerConfig) -> int:
    """Resident weight footprint in bytes at the stack's precision;
    computed once per stack."""
    return cfg._weight_bytes


def kv_bytes_per_token(cfg: TransformerConfig) -> int:
    """KV-cache bytes written per cached token (K and V, all layers)."""
    return 2 * cfg.num_layers * cfg.kv_width * cfg.precision_bytes


class VlaModelSpec(Record):
    """A deployable policy: component stacks plus workload-shape defaults."""

    __slots__ = ("name", "vision_encoder", "vlm", "action_expert",
                 "num_cameras", "tokens_per_image", "language_tokens",
                 "action_dof", "chunk_size", "denoise_steps", "decoding_mode",
                 "_vision_tokens", "_prefix_tokens")

    def __init__(self, name: str, vision_encoder: TransformerConfig,
                 vlm: TransformerConfig,
                 action_expert: Optional[TransformerConfig] = None,
                 num_cameras: int = 3, tokens_per_image: int = 256,
                 language_tokens: int = 32, action_dof: int = 14,
                 chunk_size: int = 50, denoise_steps: int = 10,
                 decoding_mode: str = DIFFUSION) -> None:
        set_field(self, "name", name)
        set_field(self, "vision_encoder", vision_encoder)
        set_field(self, "vlm", vlm)
        set_field(self, "action_expert", action_expert)
        set_field(self, "num_cameras", num_cameras)
        set_field(self, "tokens_per_image", tokens_per_image)
        set_field(self, "language_tokens", language_tokens)
        set_field(self, "action_dof", action_dof)
        set_field(self, "chunk_size", chunk_size)
        set_field(self, "denoise_steps", denoise_steps)
        set_field(self, "decoding_mode", decoding_mode)
        if decoding_mode not in DECODING_MODES:
            raise ValueError(
                f"{name}: decoding_mode must be one of {DECODING_MODES}, "
                f"got {decoding_mode!r}"
            )
        if decoding_mode == DIFFUSION and action_expert is None:
            raise ValueError(f"{name}: diffusion decoding requires an action expert")
        if decoding_mode != DIFFUSION and action_expert is not None:
            raise ValueError(
                f"{name}: autoregressive decoding runs on the VLM; "
                "drop the action expert"
            )
        if num_cameras < 0 or language_tokens < 0 or denoise_steps < 0:
            raise ValueError(f"{name}: counts must be >= 0")
        if tokens_per_image < 1 or action_dof < 1 or chunk_size < 1:
            raise ValueError(f"{name}: tokens_per_image, action_dof and "
                             "chunk_size must be >= 1")
        # One test, which a NaN fails too; the loop names the first offender.
        if not max(num_cameras, tokens_per_image, language_tokens, action_dof,
                   chunk_size, denoise_steps) <= MAX_COUNT:
            for attr in ("num_cameras", "tokens_per_image", "language_tokens",
                         "action_dof", "chunk_size", "denoise_steps"):
                check_count(name, attr, getattr(self, attr))
        # The token counts the opgraph builders read, worked out once.
        set_field(self, "_vision_tokens", num_cameras * tokens_per_image)
        set_field(self, "_prefix_tokens", self._vision_tokens + language_tokens)
        if self._prefix_tokens == 0:
            raise ValueError(f"{name}: num_cameras and language_tokens "
                             "are both 0, so the VLM has no prefix to prefill")

    def vision_tokens(self) -> int:
        """VLM tokens contributed by the cameras each control step."""
        return self._vision_tokens

    def prefix_tokens(self) -> int:
        """Fresh VLM prefix per step: camera tokens plus the language prompt."""
        return self._prefix_tokens

    def action_tokens(self) -> int:
        """Tokens an autoregressive decoder must emit for one action chunk."""
        return self.chunk_size * self.action_dof

    def components(self) -> tuple[TransformerConfig, ...]:
        stacks = [self.vision_encoder, self.vlm]
        if self.action_expert is not None:
            stacks.append(self.action_expert)
        return tuple(stacks)

    def total_params(self) -> int:
        return sum(param_count(c) for c in self.components())

