"""Loading model, accelerator, and network presets.

Presets use the field names common in published model/accelerator tables
(``num_decoder_layers``, ``BF16_TFLOPS``, ``bandwidth_mbps``, ...) and are
converted here into the package's internal dataclasses and SI units.  The
packaged presets (:mod:`~vla_roofline.presets`) can be extended or replaced
by pointing ``VLA_ROOFLINE_PRESETS`` at a directory of YAML files named
``models.yaml``, ``hardware.yaml`` and ``networks.yaml``; each file found
there shadows the packaged mapping of that name individually.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Optional

from . import presets
from .netmodel import NetworkConfig
from .roofline import AcceleratorConfig
from .workload import TransformerConfig, VlaModelSpec

PRESET_DIR_ENV = "VLA_ROOFLINE_PRESETS"
COMPONENTS_FILE = "models.yaml"
HARDWARE_FILE = "hardware.yaml"
NETWORKS_FILE = "networks.yaml"

_TFLOPS = 1e12
_GB_PER_S = 1e9
_GIB = 1024 ** 3
_MBIT = 1e6


def _number(data: Mapping[str, Any], key: str, context: str,
            kind: type = float, default: Optional[float] = None) -> Any:
    """``data[key]`` converted by ``kind`` (``float`` or ``int``); a missing
    key takes ``default``, and is an error when there is none.  YAML's
    ``true``/``false`` are not numbers, and an ``int`` field takes no
    fraction."""
    value = data.get(key, default)
    if key not in data and default is None:
        raise ValueError(f"{context}: missing required field {key!r}")
    try:
        if isinstance(value, bool):
            raise TypeError
        number = kind(value)
    # int() of an infinite float raises OverflowError, not ValueError.
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{context}: {key} must be a number, "
                         f"got {value!r}") from None
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{context}: {key} must be a whole number, "
                         f"got {value!r}")
    return number


def _mapping(data: Any, context: str) -> Mapping[str, Any]:
    if not isinstance(data, Mapping):
        raise ValueError(f"{context}: expected a mapping, "
                         f"got {type(data).__name__}")
    return data


def _reject_unknown(data: Mapping[str, Any], allowed: frozenset[str],
                    context: str) -> None:
    unknown = sorted(set(_mapping(data, context)) - allowed)
    if unknown:
        raise ValueError(f"{context}: unknown fields {unknown}")


_COMPONENT_FIELDS = frozenset({
    "num_decoder_layers", "hidden_size", "intermediate_size", "num_ffi",
    "num_attention_heads", "num_kv_heads", "head_dim", "patch_input_dim",
    "precision_bytes",
})


def transformer_from_mapping(name: str,
                             data: Mapping[str, Any]) -> TransformerConfig:
    context = f"component {name!r}"
    _reject_unknown(data, _COMPONENT_FIELDS, context)
    return TransformerConfig(
        name=name,
        num_layers=_number(data, "num_decoder_layers", context, int),
        hidden_size=_number(data, "hidden_size", context, int),
        intermediate_size=_number(data, "intermediate_size", context, int),
        num_ffi=_number(data, "num_ffi", context, int),
        num_q_heads=_number(data, "num_attention_heads", context, int),
        num_kv_heads=_number(data, "num_kv_heads", context, int),
        head_dim=_number(data, "head_dim", context, int),
        precision_bytes=_number(data, "precision_bytes", context, int, 2),
        patch_input_dim=(_number(data, "patch_input_dim", context, int)
                         if data.get("patch_input_dim") is not None else None),
    )


_MODEL_FIELDS = frozenset({
    "vision_encoder", "vlm", "action_expert", "num_cameras",
    "tokens_per_image", "language_tokens", "action_dof", "chunk_size",
    "denoise_steps", "decoding_mode",
})


def model_from_mapping(name: str, data: Mapping[str, Any],
                       components: Mapping[str, TransformerConfig],
                       ) -> VlaModelSpec:
    context = f"model {name!r}"
    _reject_unknown(data, _MODEL_FIELDS, context)

    def component(key: str, required: bool = True) -> Optional[TransformerConfig]:
        ref = data.get(key)
        if ref is None:
            if required:
                raise ValueError(f"{context}: missing required field {key!r}")
            return None
        if not isinstance(ref, str) or ref not in components:
            raise ValueError(f"{context}: unknown component {ref!r} for {key!r}")
        return components[ref]

    kwargs: dict[str, Any] = {}
    for field in ("num_cameras", "tokens_per_image", "language_tokens",
                  "action_dof", "chunk_size", "denoise_steps"):
        if field in data:
            kwargs[field] = _number(data, field, context, int)
    if "decoding_mode" in data:
        kwargs["decoding_mode"] = str(data["decoding_mode"])
    return VlaModelSpec(
        name=name,
        vision_encoder=component("vision_encoder"),
        vlm=component("vlm"),
        action_expert=component("action_expert", required=False),
        **kwargs,
    )


_HARDWARE_FIELDS = frozenset({
    "FP32_TFLOPS", "BF16_TFLOPS", "INT8_TOPS", "HBM_BW_GBs", "Memory_GB",
})


def accelerator_from_mapping(name: str,
                             data: Mapping[str, Any]) -> AcceleratorConfig:
    context = f"accelerator {name!r}"
    _reject_unknown(data, _HARDWARE_FIELDS, context)
    peaks = {
        4: _number(data, "FP32_TFLOPS", context) * _TFLOPS,
        2: _number(data, "BF16_TFLOPS", context) * _TFLOPS,
    }
    if data.get("INT8_TOPS") is not None:
        peaks[1] = _number(data, "INT8_TOPS", context) * _TFLOPS
    capacity = _number(data, "Memory_GB", context) * _GIB
    if not math.isfinite(capacity):
        raise ValueError(f"{context}: Memory_GB must be finite")
    return AcceleratorConfig(
        name=name,
        peak_flops=MappingProxyType(peaks),
        mem_bandwidth=_number(data, "HBM_BW_GBs", context) * _GB_PER_S,
        mem_capacity=int(capacity),
    )


_NETWORK_FIELDS = frozenset({
    "bandwidth_mbps", "upload_mbps", "download_mbps", "base_latency_ms",
    "efficiency",
})


def network_from_mapping(name: str, data: Mapping[str, Any]) -> NetworkConfig:
    context = f"network {name!r}"
    _reject_unknown(data, _NETWORK_FIELDS, context)
    if "bandwidth_mbps" in data:
        if "upload_mbps" in data or "download_mbps" in data:
            raise ValueError(f"{context}: give either bandwidth_mbps or the "
                             "upload/download pair, not both")
        up = down = _number(data, "bandwidth_mbps", context)
    else:
        up = _number(data, "upload_mbps", context)
        down = _number(data, "download_mbps", context)
    return NetworkConfig(
        name=name,
        upload_bw=up * _MBIT,
        download_bw=down * _MBIT,
        base_latency=_number(data, "base_latency_ms", context) / 1e3,
        efficiency=_number(data, "efficiency", context, float, 1.0),
    )


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------


def _read_yaml(path: Path, data: bytes) -> Mapping[str, Any]:
    # Only an override file needs PyYAML, so only it pays for the import.
    import yaml

    # Same safe constructor and resolver either way, so both give the same
    # data; libyaml's parser is several times faster.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        parsed = yaml.load(data, Loader=loader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = (f"{exc.problem} (line {mark.line + 1}, column "
                   f"{mark.column + 1})" if mark is not None
                   else " ".join(str(exc).split()))
        raise ValueError(f"{path}: invalid YAML: {problem}") from None
    if parsed is None:
        return {}
    if not isinstance(parsed, Mapping):
        raise ValueError(f"{path}: expected a mapping at the top level")
    return parsed


def _override(filename: str) -> Optional[tuple[Path, bytes]]:
    """(path, bytes) of the file that shadows ``filename``, if any."""
    env_dir = os.environ.get(PRESET_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / filename
        if candidate.is_file():
            return candidate, candidate.read_bytes()
    return None


def _preset_data(override: Optional[tuple[Path, bytes]],
                 packaged: Mapping[str, Any]) -> Mapping[str, Any]:
    return packaged if override is None else _read_yaml(*override)


def _section(data: Mapping[str, Any], key: str,
             source: str) -> Mapping[str, Any]:
    return _mapping(data.get(key) or {}, f"{source}: {key}")


def _lookup(entries: Mapping[str, Any], name: str, kind: str) -> Any:
    if name not in entries:
        raise ValueError(f"unknown {kind} {name!r}; available: "
                         f"{', '.join(sorted(entries))}")
    return entries[name]


@dataclass(frozen=True)
class PresetLibrary:
    """Everything loadable by name: components, models, accelerators, links,
    each a read-only mapping from preset name."""

    components: Mapping[str, TransformerConfig]
    models: Mapping[str, VlaModelSpec]
    hardware: Mapping[str, AcceleratorConfig]
    networks: Mapping[str, NetworkConfig]

    def component(self, name: str) -> TransformerConfig:
        return _lookup(self.components, name, "component preset")

    def model(self, name: str) -> VlaModelSpec:
        return _lookup(self.models, name, "model preset")

    def accelerator(self, name: str) -> AcceleratorConfig:
        return _lookup(self.hardware, name, "accelerator")

    def network(self, name: str) -> NetworkConfig:
        return _lookup(self.networks, name, "network")


def load_presets() -> PresetLibrary:
    """Load the full preset library.

    ``$VLA_ROOFLINE_PRESETS`` may name a directory of replacement files;
    anything missing there falls back to the packaged defaults file-by-file.
    Without a replacement file nothing is read: the packaged presets are
    :mod:`~vla_roofline.presets`.  Each distinct set of replacement paths
    and bytes is parsed once per process, and the library built from it is
    shared between calls, so it is read-only.
    """
    return _build_library(*(_override(filename) for filename in
                            (COMPONENTS_FILE, HARDWARE_FILE, NETWORKS_FILE)))


@functools.lru_cache(maxsize=8)
def _build_library(components_file: Optional[tuple[Path, bytes]],
                   hardware_file: Optional[tuple[Path, bytes]],
                   networks_file: Optional[tuple[Path, bytes]],
                   ) -> PresetLibrary:
    """The library from (path, bytes) of each replacement file, the packaged
    mapping where there is none.  A file that fails to parse raises, and
    nothing is cached for it."""
    data = _preset_data(components_file, presets.MODELS)
    source = (str(components_file[0]) if components_file is not None
              else "vla_roofline.presets.MODELS")
    _reject_unknown(data, frozenset({"components", "models"}), source)
    components = {
        name: transformer_from_mapping(name, fields)
        for name, fields in _section(data, "components", source).items()
    }
    models = {
        name: model_from_mapping(name, fields, components)
        for name, fields in _section(data, "models", source).items()
    }
    hardware = _preset_data(hardware_file, presets.HARDWARE)
    networks = _preset_data(networks_file, presets.NETWORKS)
    return PresetLibrary(
        components=MappingProxyType(components),
        models=MappingProxyType(models),
        hardware=MappingProxyType({
            name: accelerator_from_mapping(name, fields)
            for name, fields in hardware.items()}),
        networks=MappingProxyType({
            name: network_from_mapping(name, fields)
            for name, fields in networks.items()}),
    )
