"""Per-operator roofline pricing and memory-capacity checks.

Every operator is priced as ``max(flops / peak, bytes / bandwidth)`` and a
graph's latency is the sum over its operators, i.e. kernels run back to back
and each one is limited by whichever hardware ceiling it hits first.  So
:func:`price_phase` sums, as exact integers, the FLOPs of the runs that hit
the compute wall and the bytes of those that hit the memory wall, whatever
their order.  Whether a whole *phase* is compute- or memory-bound is decided
on its aggregate operational intensity (total FLOPs / total bytes) against
the accelerator's balance point.  The footprint is the weights plus the KV
of every token in :func:`opgraph.cached_tokens`, the ledger attention reads.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

from . import opgraph
from .opgraph import Operator, OperatorGraph, Run
from .record import Record, set_field
from .workload import VlaModelSpec, kv_bytes_per_token, weight_bytes

COMPUTE_BOUND = "compute"
MEMORY_BOUND = "memory"

GIB = 1024 ** 3


class AcceleratorConfig(Record):
    """One accelerator: the peak FLOP/s every phase is priced at, HBM
    bandwidth in bytes/s and capacity in bytes.  The peak is the BF16 one,
    whatever a component's ``precision_bytes``, which scales only bytes.
    """

    __slots__ = ("name", "peak_flops", "mem_bandwidth", "mem_capacity")

    def __init__(self, name: str, peak_flops: float,
                 mem_bandwidth: float, mem_capacity: int) -> None:
        set_field(self, "name", name)
        set_field(self, "peak_flops", peak_flops)
        set_field(self, "mem_bandwidth", mem_bandwidth)
        set_field(self, "mem_capacity", mem_capacity)
        if not (math.isfinite(self.peak_flops) and self.peak_flops > 0):
            raise ValueError(f"{self.name}: peak FLOP/s must be finite and positive")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.mem_bandwidth, self.mem_capacity)):
            raise ValueError(f"{self.name}: bandwidth and capacity must be "
                             "finite and positive")

    def balance_oi(self) -> float:
        """Operational intensity (FLOP/byte) where compute and memory meet."""
        return self.peak_flops / self.mem_bandwidth


def op_time(op: Operator, hw: AcceleratorConfig) -> tuple[float, str]:
    """Roofline time of one operator in seconds, plus the binding side.

    Ties (including the empty operator) count as memory bound.
    """
    t_compute = op.flops / hw.peak_flops
    t_memory = op.bytes / hw.mem_bandwidth
    if t_compute > t_memory:
        return t_compute, COMPUTE_BOUND
    return t_memory, MEMORY_BOUND


def graph_time(graph: OperatorGraph, hw: AcceleratorConfig) -> float:
    """Sum of per-operator roofline times in seconds, every phase on ``hw``:
    the seconds of :func:`price_phase` over the graph's runs, so a phase's
    seconds are ``graph_time(graph.subgraph(phase), hw)``."""
    return price_phase(graph.ops, hw)[0]


def _label(oi: float, hw: AcceleratorConfig) -> str:
    if oi > hw.balance_oi():
        return COMPUTE_BOUND
    return MEMORY_BOUND


def graph_oi(graph: OperatorGraph) -> float:
    """Aggregate operational intensity (FLOP/byte) of a graph that moves
    bytes."""
    return (sum(op.flops * count for op, count in graph.ops)
            / sum(op.bytes * count for op, count in graph.ops))


def boundedness(graph: OperatorGraph, hw: AcceleratorConfig) -> str:
    """Aggregate compute/memory label: compute iff OI exceeds the balance."""
    return _label(graph_oi(graph), hw)


# ---------------------------------------------------------------------------
# Memory footprint and feasibility
# ---------------------------------------------------------------------------


def kv_cache_bytes(spec: VlaModelSpec, context_timesteps: int) -> int:
    """The paper's camera-only T6 KV count after ``context_timesteps``
    steps: :func:`opgraph.cached_tokens` less the language prompt, 576 KiB
    under the footprint's KV for pi0 (32 tokens of 18,432 B)."""
    return ((opgraph.cached_tokens(spec, context_timesteps)
             - spec.language_tokens) * kv_bytes_per_token(spec.vlm))


def memory_footprint(spec: VlaModelSpec,
                     context_timesteps: Optional[int] = None) -> int:
    """Resident bytes: all component weights plus the VLM KV of every
    :func:`opgraph.cached_tokens` token, so ``None`` and 1 are equal."""
    weights = sum(weight_bytes(c) for c in spec.components())
    return weights + (opgraph.cached_tokens(spec, context_timesteps)
                      * kv_bytes_per_token(spec.vlm))


def fits(spec: VlaModelSpec, hw: AcceleratorConfig,
         context_timesteps: Optional[int] = None) -> bool:
    """Whether the policy's resident footprint fits in device memory."""
    return memory_footprint(spec, context_timesteps) <= hw.mem_capacity


def price_phase(ops: Iterable[Run], hw: AcceleratorConfig,
                ) -> tuple[float, int, int]:
    """Seconds, FLOPs and bytes of one phase's runs on ``hw``.

    Compute-bound runs (by :func:`op_time`'s test) add FLOPs, the others
    bytes, to exact integer sums; the seconds are those sums over the peak
    and the bandwidth, whatever the order or split of the runs.
    """
    peak, bandwidth = hw.peak_flops, hw.mem_bandwidth
    compute_flops, memory_bytes, flops, data = 0, 0, 0, 0
    for op, count in ops:
        if op.flops / peak > op.bytes / bandwidth:
            compute_flops += op.flops * count
        else:
            memory_bytes += op.bytes * count
        flops += op.flops * count
        data += op.bytes * count
    return compute_flops / peak + memory_bytes / bandwidth, flops, data


def figure_phase(runs: Iterable[Run], hw: AcceleratorConfig,
                 ) -> tuple[float, float, str]:
    """Seconds, operational intensity and bound of one phase's runs on
    ``hw``: the wall sums of :func:`price_phase`, and a label that reads
    only ``hw``'s peak and bandwidth.  The runs must move bytes, as every
    phase's weight-streaming matmuls do."""
    seconds, flops, data = price_phase(runs, hw)
    oi = flops / data
    return seconds, oi, _label(oi, hw)
