"""Per-operator roofline pricing and memory-capacity checks.

Every operator is priced as ``max(flops / peak, bytes / bandwidth)`` and a
graph's latency is the sum over its operators, i.e. kernels run back to back
and each one is limited by whichever hardware ceiling it hits first.  Whether
a whole *phase* is compute- or memory-bound is decided on its aggregate
operational intensity (total FLOPs / total bytes) against the accelerator's
balance point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional

from . import opgraph
from .opgraph import Operator, OperatorGraph
from .workload import VlaModelSpec, kv_bytes_per_token, weight_bytes

COMPUTE_BOUND = "compute"
MEMORY_BOUND = "memory"

GIB = 1024 ** 3


@dataclass(frozen=True)
class AcceleratorConfig:
    """One accelerator: peak FLOP/s per precision, HBM bandwidth and capacity.

    ``peak_flops`` maps precision bytes to peak FLOP/s; 2-byte and 4-byte
    entries are mandatory, a 1-byte entry is optional.  ``mem_bandwidth`` is
    in bytes/s, ``mem_capacity`` in bytes.
    """

    name: str
    peak_flops: Mapping[int, float]
    mem_bandwidth: float
    mem_capacity: int

    def __post_init__(self) -> None:
        for required in (2, 4):
            if required not in self.peak_flops:
                raise ValueError(
                    f"{self.name}: peak_flops needs a {required}-byte entry")
        if not all(math.isfinite(v) and v > 0 for v in self.peak_flops.values()):
            raise ValueError(f"{self.name}: peak FLOP/s must be finite and positive")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.mem_bandwidth, self.mem_capacity)):
            raise ValueError(f"{self.name}: bandwidth and capacity must be "
                             "finite and positive")

    def peak(self, precision_bytes: int = 2) -> float:
        try:
            return self.peak_flops[precision_bytes]
        except KeyError:
            raise ValueError(
                f"{self.name}: no peak FLOP/s entry for "
                f"{precision_bytes}-byte precision"
            ) from None

    def balance_oi(self, precision_bytes: int = 2) -> float:
        """Operational intensity (FLOP/byte) where compute and memory meet."""
        return self.peak(precision_bytes) / self.mem_bandwidth


def op_time(op: Operator, hw: AcceleratorConfig,
            precision_bytes: int = 2) -> tuple[float, str]:
    """Roofline time of one operator in seconds, plus the binding side.

    Ties (including the empty operator) count as memory bound.
    """
    t_compute = op.flops / hw.peak(precision_bytes)
    t_memory = op.bytes / hw.mem_bandwidth
    if t_compute > t_memory:
        return t_compute, COMPUTE_BOUND
    return t_memory, MEMORY_BOUND


def graph_time(graph: OperatorGraph, hw: AcceleratorConfig,
               precision_bytes: int = 2) -> float:
    """Sum of per-operator roofline times in seconds, every phase on ``hw``.

    Each run is priced once: its operator's time times its count.  Per-phase
    subtotals come from :func:`phase_breakdown`.
    """
    total = 0.0
    for op, count in graph.ops:
        total += count * op_time(op, hw, precision_bytes)[0]
    return total


def _intensity(flops: int, data: int) -> float:
    if data == 0:
        raise ValueError("operational intensity is undefined for a graph "
                         "that moves zero bytes")
    return flops / data


def _label(oi: float, hw: AcceleratorConfig, precision_bytes: int = 2) -> str:
    if oi > hw.balance_oi(precision_bytes):
        return COMPUTE_BOUND
    return MEMORY_BOUND


def graph_oi(graph: OperatorGraph) -> float:
    """Aggregate operational intensity (FLOP/byte) of a graph."""
    return _intensity(graph.total_flops, graph.total_bytes)


def boundedness(graph: OperatorGraph, hw: AcceleratorConfig,
                precision_bytes: int = 2) -> str:
    """Aggregate compute/memory label: compute iff OI exceeds the balance."""
    return _label(graph_oi(graph), hw, precision_bytes)


# ---------------------------------------------------------------------------
# Memory footprint and feasibility
# ---------------------------------------------------------------------------


def memory_footprint(spec: VlaModelSpec,
                     context_timesteps: Optional[int] = None) -> int:
    """Resident bytes: all component weights plus the live VLM KV cache.

    Stateless serving (``context_timesteps=None``) caches one fresh prefix.
    In the long-context regime only the camera tokens of each step are
    retained, so after ``t`` steps the cache holds ``vision_tokens * t``
    tokens.
    """
    weights = sum(weight_bytes(c) for c in spec.components())
    if context_timesteps is None:
        cached_tokens = spec.prefix_tokens()
    else:
        if context_timesteps < 1:
            raise ValueError("context_timesteps must be >= 1")
        cached_tokens = spec.vision_tokens() * context_timesteps
    return weights + cached_tokens * kv_bytes_per_token(spec.vlm)


def kv_cache_bytes(spec: VlaModelSpec, context_timesteps: int) -> int:
    """Live KV-cache bytes after ``context_timesteps`` long-context steps."""
    if context_timesteps < 1:
        raise ValueError("context_timesteps must be >= 1")
    return spec.vision_tokens() * context_timesteps * kv_bytes_per_token(spec.vlm)


def fits(spec: VlaModelSpec, hw: AcceleratorConfig,
         context_timesteps: Optional[int] = None) -> bool:
    """Whether the policy's resident footprint fits in device memory."""
    return memory_footprint(spec, context_timesteps) <= hw.mem_capacity


def phase_breakdown(graph: OperatorGraph, hw: AcceleratorConfig,
                    action_hw: Optional[AcceleratorConfig] = None,
                    ) -> tuple[dict[str, float], dict[str, float], dict[str, str]]:
    """Latency, OI and boundedness per phase of a pipeline graph.

    Every phase runs on ``hw`` except the action phase, which runs on
    ``action_hw`` when one is given (split serving).  Returns three
    phase-keyed dicts (seconds, FLOP/byte, label), covering only phases that
    actually have operators.

    One walk over the graph's runs prices every phase: each phase adds its
    runs' seconds in graph order, so its latency is bit for bit
    ``graph_time(graph.subgraph(phase), phase_hw)``, and its FLOP and
    byte totals are exact integers.
    """
    phase_hw = {phase: hw for phase in opgraph.PHASES}
    if action_hw:
        phase_hw[opgraph.ACTION] = action_hw
    # phase -> [seconds, flops, bytes]
    sums: dict[str, list] = {}
    for op, count in graph.ops:
        acc = sums.get(op.phase)
        if acc is None:
            acc = sums[op.phase] = [0.0, 0, 0]
        acc[0] += count * op_time(op, phase_hw[op.phase])[0]
        acc[1] += op.flops * count
        acc[2] += op.bytes * count
    latencies: dict[str, float] = {}
    intensity: dict[str, float] = {}
    labels: dict[str, str] = {}
    for phase in opgraph.PHASES:
        if phase not in sums:
            continue
        seconds, flops, data = sums[phase]
        latencies[phase] = seconds
        intensity[phase] = _intensity(flops, data)
        labels[phase] = _label(intensity[phase], phase_hw[phase])
    return latencies, intensity, labels
