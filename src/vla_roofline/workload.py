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

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from .configio import PresetLibrary

VALID_PRECISION_BYTES = (1, 2, 4)

# Decoding strategies for the action head.
DIFFUSION = "diffusion"
AUTOREGRESSIVE = "autoregressive"
AUTOREGRESSIVE_PARALLEL = "autoregressive_parallel"
DECODING_MODES = (DIFFUSION, AUTOREGRESSIVE, AUTOREGRESSIVE_PARALLEL)

# The largest integer a float holds exactly.  Counts are priced in float
# arithmetic, so a larger one is rejected rather than priced inexactly.
MAX_COUNT = 2 ** 53


def check_count(owner: str, field: str, value: Optional[int]) -> None:
    """Raise ``ValueError`` if the count ``value`` exceeds ``MAX_COUNT``."""
    if value is not None and value > MAX_COUNT:
        raise ValueError(f"{owner}: {field} is too large (at most 2**53)")


@dataclass(frozen=True)
class TransformerConfig:
    """Shape of a single transformer stack.

    ``num_ffi`` is the number of FFN up projections feeding the activation:
    1 gives the classic two-matmul MLP, 2 the gated three-matmul variant.
    ``num_q_heads`` / ``num_kv_heads`` express grouped-query attention; the
    query width ``num_q_heads * head_dim`` may exceed ``hidden_size`` (the
    baseline action expert does exactly that).  ``patch_input_dim`` is the
    flattened patch size (channels * patch height * patch width) and is only
    set on vision encoders.
    """

    name: str
    num_layers: int
    hidden_size: int
    intermediate_size: int
    num_ffi: int
    num_q_heads: int
    num_kv_heads: int
    head_dim: int
    precision_bytes: int = 2
    patch_input_dim: Optional[int] = None

    def __post_init__(self) -> None:
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
        if self.num_kv_heads > self.num_q_heads:
            raise ValueError(
                f"{self.name}: num_kv_heads ({self.num_kv_heads}) may not "
                f"exceed num_q_heads ({self.num_q_heads})"
            )
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
    """Resident weight footprint in bytes at the stack's precision."""
    return param_count(cfg) * cfg.precision_bytes


def kv_bytes_per_token(cfg: TransformerConfig) -> int:
    """KV-cache bytes written per cached token (K and V, all layers)."""
    return 2 * cfg.num_layers * cfg.kv_width * cfg.precision_bytes


@dataclass(frozen=True)
class VlaModelSpec:
    """A deployable policy: component stacks plus workload-shape defaults."""

    name: str
    vision_encoder: TransformerConfig
    vlm: TransformerConfig
    action_expert: Optional[TransformerConfig] = None
    num_cameras: int = 3
    tokens_per_image: int = 256
    language_tokens: int = 32
    action_dof: int = 14
    chunk_size: int = 50
    denoise_steps: int = 10
    decoding_mode: str = DIFFUSION

    def __post_init__(self) -> None:
        if self.decoding_mode not in DECODING_MODES:
            raise ValueError(
                f"{self.name}: decoding_mode must be one of {DECODING_MODES}, "
                f"got {self.decoding_mode!r}"
            )
        if self.decoding_mode == DIFFUSION and self.action_expert is None:
            raise ValueError(f"{self.name}: diffusion decoding requires an action expert")
        if self.decoding_mode != DIFFUSION and self.action_expert is not None:
            raise ValueError(
                f"{self.name}: autoregressive decoding runs on the VLM; "
                "drop the action expert"
            )
        if self.num_cameras < 0 or self.language_tokens < 0 or self.denoise_steps < 0:
            raise ValueError(f"{self.name}: counts must be >= 0")
        if self.tokens_per_image < 1 or self.action_dof < 1 or self.chunk_size < 1:
            raise ValueError(f"{self.name}: tokens_per_image, action_dof and "
                             "chunk_size must be >= 1")
        for attr in ("num_cameras", "tokens_per_image", "language_tokens",
                     "action_dof", "chunk_size", "denoise_steps"):
            check_count(self.name, attr, getattr(self, attr))

    def vision_tokens(self) -> int:
        """VLM tokens contributed by the cameras each control step."""
        return self.num_cameras * self.tokens_per_image

    def prefix_tokens(self) -> int:
        """Fresh VLM prefix per step: camera tokens plus the language prompt."""
        return self.vision_tokens() + self.language_tokens

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


# ---------------------------------------------------------------------------
# Scaled model family
# ---------------------------------------------------------------------------

# (model preset, vision preset, VLM preset, action-expert parameter target).
# The baseline is carried through unchanged; the larger policies swap in a
# bigger vision tower and a published LLM backbone and derive their action
# expert from that backbone (see _derive_action_expert).
SCALED_FAMILY_RECIPE = (
    ("pi0", None, None, None),
    ("pi0-l", "siglip-giant", "llama2-7b", 1_500_000_000),
    ("pi0-xl", "siglip-giant", "llama2-13b", 2_900_000_000),
    ("pi0-xxl", "siglip-giant", "llama2-70b", 11_700_000_000),
)

# Tolerated relative error between a derived expert and its parameter target.
_EXPERT_TARGET_TOLERANCE = 0.10


def _derive_action_expert(vlm: TransformerConfig, target_params: int,
                          name: str) -> TransformerConfig:
    """Shrink a VLM backbone into its action expert.

    Width is halved, the FFN quartered, head geometry is inherited with the
    head count re-derived from the new width, and the KV grouping ratio is
    preserved.  Depth is then the largest layer count whose parameter total
    stays within the published +10% envelope of ``target_params``; committing
    to the deep end of the envelope is the calibration that best reproduces
    published latencies for the scaled policies.
    """
    hidden = vlm.hidden_size // 2
    intermediate = vlm.intermediate_size // 4
    head_dim = vlm.head_dim
    num_q = max(1, hidden // head_dim)
    group = vlm.num_q_heads // vlm.num_kv_heads
    num_kv = max(1, num_q // group)
    per_layer = replace(vlm, name=name, num_layers=1, hidden_size=hidden,
                        intermediate_size=intermediate, num_q_heads=num_q,
                        num_kv_heads=num_kv, head_dim=head_dim,
                        patch_input_dim=None)
    layer_params = param_count(per_layer)
    num_layers = int((1.0 + _EXPERT_TARGET_TOLERANCE) * target_params // layer_params)
    expert = replace(per_layer, num_layers=num_layers)
    err = param_count(expert) / target_params - 1.0
    if abs(err) > _EXPERT_TARGET_TOLERANCE:
        raise ValueError(
            f"{name}: derived expert misses its {target_params:,}-parameter "
            f"target by {err:+.1%}"
        )
    return expert


def scaled_family(library: PresetLibrary) -> tuple[VlaModelSpec, ...]:
    """The four-policy scaling ladder, smallest to largest.

    The first entry is the baseline preset itself; each subsequent entry
    recombines preset stacks per :data:`SCALED_FAMILY_RECIPE`.  Raises if a
    derived action expert lands further than 10% from its parameter target.
    """
    baseline = library.model("pi0")
    family = []
    for model_name, vision_name, vlm_name, expert_target in SCALED_FAMILY_RECIPE:
        if vision_name is None:
            family.append(baseline)
            continue
        vlm = library.component(vlm_name)
        expert = _derive_action_expert(vlm, expert_target, f"{model_name}-expert")
        family.append(replace(
            baseline,
            name=model_name,
            vision_encoder=library.component(vision_name),
            vlm=vlm,
            action_expert=expert,
        ))
    return tuple(family)
