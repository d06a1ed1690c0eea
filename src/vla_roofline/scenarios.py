"""Deployment scenarios: placements, control-rate models, and sweeps.

A *placement* says where the policy's phases execute and which links connect
the robot to that compute.  Scenario functions combine the operator-graph
roofline times with network transfer times into end-to-end control rates:

* synchronous serving waits for the full observation -> action round trip,
* asynchronous (pipelined) serving overlaps network and GPU work, so the
  sustained rate is the slowest pipeline stage,
* collaborative serving splits the stacks: vision and VLM run on a server
  that streams the resulting KV cache down to the robot, which runs the
  action expert locally,
* dual-system serving runs the action loop (System 1) at high rate while the
  VLM (System 2) refreshes context at a capped rate on the same compute.

Memory-capacity violations are first-class results (``feasible=False`` with
latencies/rates of ``None``), never exceptions.

A scenario builds and prices its vision, VLM and action phases once the
footprint check has passed, through an optional ``memo``: a dict that the
caller owns.  It keys each phase, and each layer a phase repeats, by its
builder and that builder's arguments, as :func:`opgraph.phase_builds`
names them, and a phase's seconds, OI and bound by the accelerator figures
they read.  Calls that share one, for any mix of models, context steps and
placements, build each distinct phase and layer once and figure it once per
accelerator; :func:`sync_sweep` gives its points one, and ``reproduce``
gives one to all the golden tables it runs.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

from . import netmodel, opgraph, roofline
from .configio import PresetLibrary
from .netmodel import NetworkConfig
from .record import Record, replace, set_field
from .roofline import AcceleratorConfig
from .workload import (
    AUTOREGRESSIVE,
    AUTOREGRESSIVE_PARALLEL,
    DIFFUSION,
    VlaModelSpec,
    check_count,
    kv_bytes_per_token,
    weight_bytes,
)

ON_DEVICE = "on-device"
EDGE_SERVER = "edge-server"
CLOUD_SERVER = "cloud-server"
COLLABORATIVE = "collaborative"
# The optional Placement fields that each kind needs; it takes no other.
PLACEMENT_FIELDS = {ON_DEVICE: (), EDGE_SERVER: ("access_net",),
                    CLOUD_SERVER: ("access_net", "cloud_net"),
                    COLLABORATIVE: ("access_net", "device_hw")}
PLACEMENT_KINDS = tuple(PLACEMENT_FIELDS)


class Placement(Record):
    """Where the policy runs and how the robot reaches it."""

    __slots__ = ("kind", "hw", "device_hw", "access_net", "cloud_net")

    @classmethod
    def on_device(cls, hw: AcceleratorConfig) -> "Placement":
        return cls(ON_DEVICE, hw)

    @classmethod
    def edge_server(cls, hw: AcceleratorConfig,
                    net: NetworkConfig) -> "Placement":
        return cls(EDGE_SERVER, hw, access_net=net)

    @classmethod
    def cloud_server(cls, hw: AcceleratorConfig, access_net: NetworkConfig,
                     cloud_net: NetworkConfig) -> "Placement":
        return cls(CLOUD_SERVER, hw, access_net=access_net,
                   cloud_net=cloud_net)

    @classmethod
    def collaborative(cls, device_hw: AcceleratorConfig,
                      server_hw: AcceleratorConfig,
                      net: NetworkConfig) -> "Placement":
        return cls(COLLABORATIVE, server_hw, device_hw=device_hw,
                   access_net=net)

    def __init__(self, kind: str, hw: AcceleratorConfig,
                 device_hw: Optional[AcceleratorConfig] = None,
                 access_net: Optional[NetworkConfig] = None,
                 cloud_net: Optional[NetworkConfig] = None) -> None:
        set_field(self, "kind", kind)
        set_field(self, "hw", hw)
        set_field(self, "device_hw", device_hw)
        set_field(self, "access_net", access_net)
        set_field(self, "cloud_net", cloud_net)
        if self.kind not in PLACEMENT_KINDS:
            raise ValueError(f"kind must be one of {PLACEMENT_KINDS}")
        used = PLACEMENT_FIELDS[self.kind]
        for field in ("access_net", "cloud_net", "device_hw"):
            if (field in used) != (getattr(self, field) is not None):
                verb = "needs" if field in used else "does not use"
                raise ValueError(f"{self.kind} placement {verb} {field}")

    def network_path(self) -> tuple[NetworkConfig, ...]:
        """The links between robot and server, robot side first; empty on
        the device."""
        return tuple(net for net in (self.access_net, self.cloud_net)
                     if net is not None)

    def describe(self) -> str:
        if self.kind == ON_DEVICE:
            return f"on-device ({self.hw.name})"
        if self.kind == EDGE_SERVER:
            return f"edge server ({self.hw.name} via {self.access_net.name})"
        if self.kind == CLOUD_SERVER:
            return (f"cloud server ({self.hw.name} via {self.access_net.name} "
                    f"+ {self.cloud_net.name})")
        return (f"collaborative ({self.device_hw.name} device, {self.hw.name} "
                f"server via {self.access_net.name})")


class ScenarioResult(Record):
    """One evaluated deployment: latencies, rates, boundedness, footprint."""

    __slots__ = ("placement", "phase_latencies", "network_latencies",
                 "e2e_latency", "sync_frequency", "async_frequency",
                 "boundedness", "operational_intensity", "footprint_bytes",
                 "feasible", "notes")

    def __init__(self, placement: str, phase_latencies: dict[str, float],
                 network_latencies: dict[str, float],
                 e2e_latency: Optional[float], sync_frequency: Optional[float],
                 async_frequency: Optional[float], boundedness: dict[str, str],
                 operational_intensity: dict[str, float], footprint_bytes: int,
                 feasible: bool, notes: tuple[str, ...] = ()) -> None:
        set_field(self, "placement", placement)
        set_field(self, "phase_latencies", phase_latencies)
        set_field(self, "network_latencies", network_latencies)
        set_field(self, "e2e_latency", e2e_latency)
        set_field(self, "sync_frequency", sync_frequency)
        set_field(self, "async_frequency", async_frequency)
        set_field(self, "boundedness", boundedness)
        set_field(self, "operational_intensity", operational_intensity)
        set_field(self, "footprint_bytes", footprint_bytes)
        set_field(self, "feasible", feasible)
        set_field(self, "notes", notes)


def _infeasible(spec: VlaModelSpec, placement: Placement, need: int,
                capacity_hw: AcceleratorConfig,
                notes: tuple[str, ...]) -> ScenarioResult:
    note = (f"{spec.name} needs {need / roofline.GIB:.2f} GB but "
            f"{capacity_hw.name} has "
            f"{capacity_hw.mem_capacity / roofline.GIB:.2f} GB")
    return ScenarioResult(
        placement=placement.describe(),
        phase_latencies={},
        network_latencies={},
        e2e_latency=None,
        sync_frequency=None,
        async_frequency=None,
        boundedness={},
        operational_intensity={},
        footprint_bytes=need,
        feasible=False,
        notes=(note,) + notes,
    )


def check_scenario(spec: VlaModelSpec, placement: Placement,
                   context_timestep: Optional[int] = None) -> None:
    """Raise ``ValueError`` if no scenario can price this point.

    Split serving needs a diffusion action expert (the on-robot half) and
    models no cached camera history; a context timestep counts from 1 to
    2**53.
    """
    if placement.kind == COLLABORATIVE:
        if context_timestep is not None:
            raise ValueError("collaborative serving does not model cached "
                             "camera history (context timesteps)")
        if spec.decoding_mode != DIFFUSION:
            raise ValueError(
                "collaborative serving requires a diffusion action expert")
    opgraph.cached_tokens(spec, context_timestep)  # raises below step 1
    check_count(spec.name, "context_timesteps", context_timestep)


def _breakdown(spec: VlaModelSpec, context_timestep: Optional[int],
               hw: AcceleratorConfig, action_hw: Optional[AcceleratorConfig],
               memo: Optional[dict],
               ) -> tuple[dict[str, float], dict[str, float], dict[str, str]]:
    """Seconds, OI and bound of each phase of ``spec`` that has runs, in
    ``PHASES`` order: the action phase on ``action_hw`` when one is given
    (split serving), every other phase on ``hw``.  ``memo[(builder,
    args)]`` of :func:`opgraph.phase_builds`, as :func:`opgraph.build`
    fills it, holds a phase's non-zero runs and their
    :func:`roofline.figure_phase` under each ``(peak_flops,
    mem_bandwidth)``, the only accelerator figures it reads."""
    if memo is None:
        memo = {}
    latencies: dict[str, float] = {}
    intensity: dict[str, float] = {}
    labels: dict[str, str] = {}
    for phase, key in opgraph.phase_builds(spec, context_timestep).items():
        runs, figured = opgraph.build(key, memo)
        if runs:
            phase_hw = (action_hw if action_hw and phase == opgraph.ACTION
                        else hw)
            figures = (phase_hw.peak_flops, phase_hw.mem_bandwidth)
            entry = figured.get(figures)
            if entry is None:
                entry = figured[figures] = roofline.figure_phase(runs, phase_hw)
            latencies[phase], intensity[phase], labels[phase] = entry
    return latencies, intensity, labels


def sync_scenario(spec: VlaModelSpec, placement: Placement,
                  context_timestep: Optional[int] = None,
                  memo: Optional[dict] = None) -> ScenarioResult:
    """Synchronous serving: one full round trip per control step.

    A collaborative placement splits the stacks: the server runs vision and
    the VLM and sends back nothing but the VLM KV cache of the fresh prefix,
    which the robot's action expert then attends locally.  Each side must
    hold its stacks and that cache.
    """
    check_scenario(spec, placement, context_timestep)
    hw, action_hw, notes = placement.hw, None, ()
    if placement.kind == COLLABORATIVE:
        action_hw = placement.device_hw
        prefix_kv = opgraph.cached_tokens(spec) * kv_bytes_per_token(spec.vlm)
        server_bytes = (weight_bytes(spec.vision_encoder)
                        + weight_bytes(spec.vlm) + prefix_kv)
        device_bytes = weight_bytes(spec.action_expert) + prefix_kv
        footprint = server_bytes + device_bytes
        notes = (f"server holds {server_bytes / roofline.GIB:.2f} GB, "
                 f"device {device_bytes / roofline.GIB:.2f} GB",)
        needs = ((server_bytes, hw), (device_bytes, action_hw))
        download = ("kv_download", prefix_kv)
    else:
        download = ("action_download", netmodel.action_bytes(spec))
        footprint = roofline.memory_footprint(spec, context_timestep)
        needs = ((footprint, hw),)
    for need, capacity_hw in needs:
        if need > capacity_hw.mem_capacity:
            return _infeasible(spec, placement, need, capacity_hw, notes)

    latencies, intensity, labels = _breakdown(
        spec, context_timestep, hw, action_hw, memo)

    network: dict[str, float] = {}
    path = placement.network_path()
    if path:
        network["observation_upload"] = netmodel.path_time(
            netmodel.COMPRESSED_OBSERVATION_BYTES, path, upload=True)
        leg, nbytes = download
        network[leg] = netmodel.path_time(nbytes, path, upload=False)
    e2e = sum(latencies.values()) + sum(network.values())

    return ScenarioResult(
        placement=placement.describe(),
        phase_latencies=latencies,
        network_latencies=network,
        e2e_latency=e2e,
        sync_frequency=1.0 / e2e,
        async_frequency=None,
        boundedness=labels,
        operational_intensity=intensity,
        footprint_bytes=footprint,
        feasible=True,
        notes=notes,
    )


def sync_sweep(points: Iterable[tuple[VlaModelSpec, Optional[int]]],
               placement: Placement) -> list[ScenarioResult]:
    """``sync_scenario(spec, placement, context_timestep)`` of each
    ``(spec, context_timestep)`` point, in order.

    Every point is checked, in the order ``points`` yields them, before any
    is priced.  The points then share one memo that lives for this call
    only, so each distinct phase is built once and priced once.
    """
    grid = []
    for spec, context_timestep in points:
        check_scenario(spec, placement, context_timestep)
        grid.append((spec, context_timestep))
    memo: dict = {}
    return [sync_scenario(spec, placement, context_timestep, memo)
            for spec, context_timestep in grid]


def async_scenario(spec: VlaModelSpec, placement: Placement,
                   context_timestep: Optional[int] = None,
                   memo: Optional[dict] = None) -> ScenarioResult:
    """Pipelined serving: rate of the slowest stage, not the round trip.

    Observation uploads, GPU execution of consecutive steps, and action
    downloads all overlap, so the sustained rate is the minimum of the GPU
    rate and each hop's serialization rate in each direction.  Base latency
    still shapes reaction time but no longer limits throughput.  Requires a
    networked placement.
    """
    if placement.kind == ON_DEVICE:
        raise ValueError("asynchronous serving needs a networked placement")
    if placement.kind == COLLABORATIVE:
        raise ValueError("asynchronous serving is not defined for "
                         "collaborative placements")
    result = sync_scenario(spec, placement, context_timestep, memo)
    if not result.feasible:
        return result

    gpu_time = sum(result.phase_latencies.values())
    rates = [1.0 / gpu_time]
    up_bits = 8 * netmodel.COMPRESSED_OBSERVATION_BYTES
    down_bits = 8 * netmodel.action_bytes(spec)
    for hop in placement.network_path():
        rates.append(hop.rate(upload=True) / up_bits)
        rates.append(hop.rate(upload=False) / down_bits)
    return replace(result, async_frequency=min(rates))


def collaborative_scenario(spec: VlaModelSpec, placement: Placement,
                           memo: Optional[dict] = None) -> ScenarioResult:
    """Split serving, priced by :func:`sync_scenario`: vision+VLM on the
    server, action expert on the robot.  Requires diffusion decoding (the
    action expert is the on-robot half)."""
    if placement.kind != COLLABORATIVE:
        raise ValueError("placement must be collaborative")
    return sync_scenario(spec, placement, memo=memo)


# ---------------------------------------------------------------------------
# Dual-system serving
# ---------------------------------------------------------------------------


def dual_system_times(result: ScenarioResult) -> tuple[float, float]:
    """``(T_s1, T_s2)`` of a priced result, in seconds: System 2 is the VLM
    phase, System 1 every other phase plus the network legs."""
    t_s1 = sum(t for phase, t in result.phase_latencies.items()
               if phase != opgraph.VLM)
    for leg in result.network_latencies.values():
        t_s1 += leg
    return t_s1, result.phase_latencies.get(opgraph.VLM, 0.0)


def dual_system_scenario(spec: VlaModelSpec, placement: Placement,
                         s2_cap: float, memo: Optional[dict] = None,
                         ) -> ScenarioResult:
    """Synchronous serving, plus System 1's rate under a System-2 cap.

    System 2 (the VLM) refreshes context at most ``s2_cap`` times per
    second, and System 1 (see :func:`dual_system_times`) fills the remaining
    compute, so ``async_frequency`` is ``f1 = (1 - s2_cap * T_s2) / T_s1``.
    Synchronously the two systems alternate, at the synchronous rate.  A cap
    with ``s2_cap * T_s2 >= 1`` is infeasible; a cap above ``f1`` is flagged
    in the notes (context would refresh faster than actions are produced).
    """
    if not (math.isfinite(s2_cap) and s2_cap > 0):
        raise ValueError("s2_cap must be a finite positive rate")
    if placement.kind == COLLABORATIVE:
        raise ValueError("dual-system serving is not defined for "
                         "collaborative placements")
    result = sync_scenario(spec, placement, memo=memo)
    if not result.feasible:
        return result

    t_s1, t_s2 = dual_system_times(result)
    if s2_cap * t_s2 >= 1.0:
        note = (f"System 2 cannot sustain {s2_cap:g} Hz: refresh alone takes "
                f"{t_s2 * 1e3:.2f} ms")
        return replace(result, feasible=False, notes=(note,))
    if t_s1 == 0:
        raise ValueError("dual-system serving needs System-1 work: this "
                         "point has no camera, action or network time")
    f1 = (1.0 - s2_cap * t_s2) / t_s1
    notes: tuple[str, ...] = ()
    if f1 < s2_cap:
        notes = (f"requested System-2 rate {s2_cap:g} Hz exceeds the achieved "
                 f"System-1 rate {f1:.1f} Hz",)
    return replace(result, async_frequency=f1, notes=notes)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def long_context_sweep(spec: VlaModelSpec, placement: Placement,
                       timesteps: Sequence[int]) -> tuple[ScenarioResult, ...]:
    """Latency and memory growth as camera history accumulates in cache:
    one synchronous result per timestep, with its ``footprint_bytes``,
    through one memo (see :func:`sync_sweep`)."""
    return tuple(sync_sweep([(spec, t) for t in timesteps], placement))


DIFFUSION_LARGE = "diffusion_large"
DECODING_VARIANTS = (DIFFUSION, DIFFUSION_LARGE, AUTOREGRESSIVE,
                     AUTOREGRESSIVE_PARALLEL)


def decoding_variant_spec(spec: VlaModelSpec, variant: str) -> VlaModelSpec:
    """``spec`` under one of :data:`DECODING_VARIANTS`, which each set
    ``decoding_mode``: ``diffusion`` refuses a model without an action
    expert, and ``diffusion_large`` gives any model a VLM-sized one."""
    if variant == DIFFUSION:
        return replace(spec, decoding_mode=DIFFUSION)
    if variant == DIFFUSION_LARGE:
        big = replace(spec.vlm, name=f"{spec.vlm.name}-expert",
                      patch_input_dim=None)
        return replace(spec, name=f"{spec.name}-large-expert",
                       action_expert=big, decoding_mode=DIFFUSION)
    if variant in (AUTOREGRESSIVE, AUTOREGRESSIVE_PARALLEL):
        return replace(spec, name=f"{spec.name}-{variant}",
                       decoding_mode=variant, action_expert=None)
    raise ValueError(f"unknown decoding variant {variant!r}")


# The model presets of the scaling ladder, smallest to largest.
SCALED_FAMILY = ("pi0", "pi0-l", "pi0-xl", "pi0-xxl")


def scaling_sweep(library: PresetLibrary,
                  hardware: Sequence[AcceleratorConfig],
                  memo: dict,
                  ) -> tuple[tuple[VlaModelSpec, AcceleratorConfig,
                                   ScenarioResult], ...]:
    """On-device synchronous result of each :data:`SCALED_FAMILY` model, as
    ``library`` defines it, on each accelerator, as ``(spec, hw, result)``
    in family-then-hardware order, through ``memo``."""
    return tuple((spec, hw, sync_scenario(spec, Placement.on_device(hw),
                                          memo=memo))
                 for spec in map(library.model, SCALED_FAMILY)
                 for hw in hardware)
