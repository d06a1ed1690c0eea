"""Loading model, accelerator, and network presets from YAML.

Preset files use the field names common in published model/accelerator
tables (``num_decoder_layers``, ``BF16_TFLOPS``, ``bandwidth_mbps``, ...)
and are converted here into the package's internal dataclasses and SI
units.  The packaged presets can be extended or replaced by pointing
``VLA_ROOFLINE_PRESETS`` at a directory containing files of the same
names; each file found there shadows the packaged one individually.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Optional, Union

import yaml

from .netmodel import NetworkConfig
from .roofline import AcceleratorConfig
from .workload import PresetCatalog, TransformerConfig, VlaModelSpec

PRESET_DIR_ENV = "VLA_ROOFLINE_PRESETS"
COMPONENTS_FILE = "models.yaml"
HARDWARE_FILE = "hardware.yaml"
NETWORKS_FILE = "networks.yaml"

_TFLOPS = 1e12
_GB_PER_S = 1e9
_GIB = 1024 ** 3
_MBIT = 1e6


def _require(data: Mapping[str, Any], key: str, context: str) -> Any:
    if key not in data:
        raise ValueError(f"{context}: missing required field {key!r}")
    return data[key]


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
        num_layers=int(_require(data, "num_decoder_layers", context)),
        hidden_size=int(_require(data, "hidden_size", context)),
        intermediate_size=int(_require(data, "intermediate_size", context)),
        num_ffi=int(_require(data, "num_ffi", context)),
        num_q_heads=int(_require(data, "num_attention_heads", context)),
        num_kv_heads=int(_require(data, "num_kv_heads", context)),
        head_dim=int(_require(data, "head_dim", context)),
        precision_bytes=int(data.get("precision_bytes", 2)),
        patch_input_dim=(int(data["patch_input_dim"])
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
            kwargs[field] = int(data[field])
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
        4: float(_require(data, "FP32_TFLOPS", context)) * _TFLOPS,
        2: float(_require(data, "BF16_TFLOPS", context)) * _TFLOPS,
    }
    if data.get("INT8_TOPS") is not None:
        peaks[1] = float(data["INT8_TOPS"]) * _TFLOPS
    capacity = float(_require(data, "Memory_GB", context)) * _GIB
    # int() of an infinite float raises OverflowError, not ValueError.
    if not math.isfinite(capacity):
        raise ValueError(f"{context}: Memory_GB must be finite")
    return AcceleratorConfig(
        name=name,
        peak_flops=peaks,
        mem_bandwidth=float(_require(data, "HBM_BW_GBs", context)) * _GB_PER_S,
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
        up = down = float(data["bandwidth_mbps"])
    else:
        up = float(_require(data, "upload_mbps", context))
        down = float(_require(data, "download_mbps", context))
    return NetworkConfig(
        name=name,
        upload_bw=up * _MBIT,
        download_bw=down * _MBIT,
        base_latency=float(_require(data, "base_latency_ms", context)) / 1e3,
        efficiency=float(data.get("efficiency", 1.0)),
    )


# ---------------------------------------------------------------------------
# File loading
# ---------------------------------------------------------------------------


def _read_yaml(path: Path) -> Mapping[str, Any]:
    with path.open("r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    if data is None:
        return {}
    if not isinstance(data, Mapping):
        raise ValueError(f"{path}: expected a mapping at the top level")
    return data


def _resolve(filename: str, preset_dir: Optional[Path]) -> Path:
    if preset_dir is not None:
        candidate = preset_dir / filename
        if candidate.is_file():
            return candidate
    env_dir = os.environ.get(PRESET_DIR_ENV)
    if env_dir:
        candidate = Path(env_dir) / filename
        if candidate.is_file():
            return candidate
    packaged = resources.files("vla_roofline") / "presets" / filename
    with resources.as_file(packaged) as concrete:
        return Path(concrete)


def _section(data: Mapping[str, Any], key: str,
             path: Union[str, Path]) -> Mapping[str, Any]:
    return _mapping(data.get(key) or {}, f"{path}: {key}")


def load_catalog(path: Union[str, Path]) -> PresetCatalog:
    """Read one YAML file holding ``components:`` and ``models:`` sections."""
    data = _read_yaml(Path(path))
    _reject_unknown(data, frozenset({"components", "models"}), str(path))
    components = {
        name: transformer_from_mapping(name, fields)
        for name, fields in _section(data, "components", path).items()
    }
    models = {
        name: model_from_mapping(name, fields, components)
        for name, fields in _section(data, "models", path).items()
    }
    return PresetCatalog(components=components, models=models)


def load_hardware(path: Union[str, Path]) -> dict[str, AcceleratorConfig]:
    return {name: accelerator_from_mapping(name, fields)
            for name, fields in _read_yaml(Path(path)).items()}


def load_networks(path: Union[str, Path]) -> dict[str, NetworkConfig]:
    return {name: network_from_mapping(name, fields)
            for name, fields in _read_yaml(Path(path)).items()}


@dataclass(frozen=True)
class PresetLibrary:
    """Everything loadable by name: models, components, accelerators, links."""

    catalog: PresetCatalog
    hardware: Mapping[str, AcceleratorConfig]
    networks: Mapping[str, NetworkConfig]

    def model(self, name: str) -> VlaModelSpec:
        return self.catalog.model(name)

    def component(self, name: str) -> TransformerConfig:
        return self.catalog.component(name)

    def accelerator(self, name: str) -> AcceleratorConfig:
        if name not in self.hardware:
            raise ValueError(f"unknown accelerator {name!r}; available: "
                             f"{', '.join(sorted(self.hardware))}")
        return self.hardware[name]

    def network(self, name: str) -> NetworkConfig:
        if name not in self.networks:
            raise ValueError(f"unknown network {name!r}; available: "
                             f"{', '.join(sorted(self.networks))}")
        return self.networks[name]


def load_presets(preset_dir: Union[str, Path, None] = None) -> PresetLibrary:
    """Load the full preset library.

    ``preset_dir`` (or, failing that, ``$VLA_ROOFLINE_PRESETS``) may hold
    replacement files; anything missing there falls back to the packaged
    defaults file-by-file.
    """
    directory = Path(preset_dir) if preset_dir is not None else None
    return PresetLibrary(
        catalog=load_catalog(_resolve(COMPONENTS_FILE, directory)),
        hardware=load_hardware(_resolve(HARDWARE_FILE, directory)),
        networks=load_networks(_resolve(NETWORKS_FILE, directory)),
    )
