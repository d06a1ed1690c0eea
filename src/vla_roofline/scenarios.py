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

The sync, async, collaborative and dual-system functions take an optional
prebuilt ``graph``, which must equal ``pipeline_graph(spec,
context_timestep)``: a caller that prices one model on many placements
builds its graph once.  Without it, a scenario builds the graph itself, and
only once the footprint check has passed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from . import netmodel, opgraph, roofline
from .configio import PresetLibrary
from .netmodel import NetworkConfig
from .roofline import AcceleratorConfig
from .workload import (
    AUTOREGRESSIVE,
    AUTOREGRESSIVE_PARALLEL,
    DIFFUSION,
    VlaModelSpec,
    check_count,
    kv_bytes_per_token,
    scaled_family,
    weight_bytes,
)

ON_DEVICE = "on-device"
EDGE_SERVER = "edge-server"
CLOUD_SERVER = "cloud-server"
COLLABORATIVE = "collaborative"
PLACEMENT_KINDS = (ON_DEVICE, EDGE_SERVER, CLOUD_SERVER, COLLABORATIVE)


@dataclass(frozen=True)
class Placement:
    """Where the policy runs and how the robot reaches it."""

    kind: str
    hw: AcceleratorConfig
    device_hw: Optional[AcceleratorConfig] = None
    access_net: Optional[NetworkConfig] = None
    cloud_net: Optional[NetworkConfig] = None

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

    def __post_init__(self) -> None:
        if self.kind not in PLACEMENT_KINDS:
            raise ValueError(f"kind must be one of {PLACEMENT_KINDS}")
        if self.kind in (EDGE_SERVER, COLLABORATIVE) and self.access_net is None:
            raise ValueError(f"{self.kind} placement needs a network")
        if self.kind == CLOUD_SERVER and (self.access_net is None
                                          or self.cloud_net is None):
            raise ValueError("cloud-server placement needs access and cloud links")
        if self.kind == COLLABORATIVE and self.device_hw is None:
            raise ValueError("collaborative placement needs a device accelerator")

    def network_path(self) -> tuple[NetworkConfig, ...]:
        """The links between robot and server, robot side first; empty on
        the device."""
        if self.kind == ON_DEVICE:
            return ()
        if self.kind == CLOUD_SERVER:
            return (self.access_net, self.cloud_net)
        return (self.access_net,)

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


@dataclass(frozen=True)
class ScenarioResult:
    """One evaluated deployment: latencies, rates, boundedness, footprint."""

    placement: str
    phase_latencies: dict[str, float]
    network_latencies: dict[str, float]
    e2e_latency: Optional[float]
    sync_frequency: Optional[float]
    async_frequency: Optional[float]
    boundedness: dict[str, str]
    operational_intensity: dict[str, float]
    footprint_bytes: int
    feasible: bool
    notes: tuple[str, ...] = ()


def _capacity_note(spec: VlaModelSpec, footprint: int,
                   hw: AcceleratorConfig) -> str:
    return (f"{spec.name} needs {footprint / roofline.GIB:.2f} GB but "
            f"{hw.name} has {hw.mem_capacity / roofline.GIB:.2f} GB")


def _infeasible(spec: VlaModelSpec, placement: Placement, footprint: int,
                capacity_hw: AcceleratorConfig,
                extra_notes: tuple[str, ...] = ()) -> ScenarioResult:
    return ScenarioResult(
        placement=placement.describe(),
        phase_latencies={},
        network_latencies={},
        e2e_latency=None,
        sync_frequency=None,
        async_frequency=None,
        boundedness={},
        operational_intensity={},
        footprint_bytes=footprint,
        feasible=False,
        notes=(_capacity_note(spec, footprint, capacity_hw),) + extra_notes,
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
    if context_timestep is not None and context_timestep < 1:
        raise ValueError("context_timesteps must be >= 1")
    check_count(spec.name, "context_timesteps", context_timestep)


def sync_scenario(spec: VlaModelSpec, placement: Placement,
                  context_timestep: Optional[int] = None,
                  graph: Optional[opgraph.OperatorGraph] = None,
                  ) -> ScenarioResult:
    """Synchronous serving: one full round trip per control step."""
    check_scenario(spec, placement, context_timestep)
    if placement.kind == COLLABORATIVE:
        return collaborative_scenario(spec, placement, graph)
    hw = placement.hw
    footprint = roofline.memory_footprint(spec, context_timestep)
    if footprint > hw.mem_capacity:
        return _infeasible(spec, placement, footprint, hw)

    if graph is None:
        graph = opgraph.pipeline_graph(spec, context_timestep)
    latencies, intensity, labels = roofline.phase_breakdown(graph, hw)
    gpu_time = sum(latencies.values())

    network: dict[str, float] = {}
    path = placement.network_path()
    if path:
        network["observation_upload"] = netmodel.path_time(
            netmodel.observation_payload(spec), path)
        network["action_download"] = netmodel.path_time(
            netmodel.action_payload(spec), path)
    e2e = gpu_time + sum(network.values())

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
    )


def async_scenario(spec: VlaModelSpec, placement: Placement,
                   context_timestep: Optional[int] = None,
                   graph: Optional[opgraph.OperatorGraph] = None,
                   ) -> ScenarioResult:
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
    result = sync_scenario(spec, placement, context_timestep, graph)
    if not result.feasible:
        return result

    gpu_time = sum(result.phase_latencies.values())
    rates = [1.0 / gpu_time]
    obs = netmodel.observation_payload(spec)
    act = netmodel.action_payload(spec)
    for hop in placement.network_path():
        rates.append(hop.upload_bw * hop.efficiency / (8 * obs.bytes))
        rates.append(hop.download_bw * hop.efficiency / (8 * act.bytes))
    return replace(result, async_frequency=min(rates))


def collaborative_scenario(spec: VlaModelSpec, placement: Placement,
                           graph: Optional[opgraph.OperatorGraph] = None,
                           ) -> ScenarioResult:
    """Split serving: vision+VLM on the server, action expert on the robot.

    The server uploads nothing back but the VLM KV cache of the fresh prefix,
    which the robot's action expert then attends locally.  Requires diffusion
    decoding (the action expert is the on-robot half).
    """
    if placement.kind != COLLABORATIVE:
        raise ValueError("placement must be collaborative")
    check_scenario(spec, placement)
    server, device = placement.hw, placement.device_hw

    prefix_kv = spec.prefix_tokens() * kv_bytes_per_token(spec.vlm)
    server_bytes = (weight_bytes(spec.vision_encoder)
                    + weight_bytes(spec.vlm) + prefix_kv)
    device_bytes = weight_bytes(spec.action_expert) + prefix_kv
    footprint = server_bytes + device_bytes
    split_note = (f"server holds {server_bytes / roofline.GIB:.2f} GB, "
                  f"device {device_bytes / roofline.GIB:.2f} GB")
    if server_bytes > server.mem_capacity:
        return _infeasible(spec, placement, server_bytes, server, (split_note,))
    if device_bytes > device.mem_capacity:
        return _infeasible(spec, placement, device_bytes, device, (split_note,))

    if graph is None:
        graph = opgraph.pipeline_graph(spec)
    latencies, intensity, labels = roofline.phase_breakdown(
        graph, server, action_hw=device)

    path = placement.network_path()
    network = {
        "observation_upload": netmodel.path_time(
            netmodel.observation_payload(spec), path),
        "kv_download": netmodel.path_time(
            netmodel.kv_payload(spec.prefix_tokens(), spec.vlm), path),
    }
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
        notes=(split_note,),
    )


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
    return t_s1, result.phase_latencies[opgraph.VLM]


def dual_system_scenario(spec: VlaModelSpec, placement: Placement,
                         s2_cap: float,
                         graph: Optional[opgraph.OperatorGraph] = None,
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
    result = sync_scenario(spec, placement, graph=graph)
    if not result.feasible:
        return result

    t_s1, t_s2 = dual_system_times(result)
    if s2_cap * t_s2 >= 1.0:
        note = (f"System 2 cannot sustain {s2_cap:g} Hz: refresh alone takes "
                f"{t_s2 * 1e3:.2f} ms")
        return replace(result, feasible=False, notes=(note,))
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
    one synchronous result per timestep, with its ``footprint_bytes``."""
    return tuple([sync_scenario(spec, placement, context_timestep=t)
                  for t in timesteps])


DIFFUSION_LARGE = "diffusion_large"
DECODING_VARIANTS = (DIFFUSION, DIFFUSION_LARGE, AUTOREGRESSIVE,
                     AUTOREGRESSIVE_PARALLEL)


def decoding_variant_spec(spec: VlaModelSpec, variant: str, chunk: int,
                           dof: int) -> VlaModelSpec:
    base = replace(spec, chunk_size=chunk, action_dof=dof)
    if variant == DIFFUSION:
        return base
    if variant == DIFFUSION_LARGE:
        big = replace(spec.vlm, name=f"{spec.vlm.name}-expert",
                      patch_input_dim=None)
        return replace(base, name=f"{spec.name}-large-expert",
                       action_expert=big)
    if variant in (AUTOREGRESSIVE, AUTOREGRESSIVE_PARALLEL):
        return replace(base, name=f"{spec.name}-{variant}",
                       decoding_mode=variant, action_expert=None)
    raise ValueError(f"unknown decoding variant {variant!r}")


def scaling_sweep(library: PresetLibrary,
                  hardware: Sequence[AcceleratorConfig],
                  ) -> tuple[tuple[VlaModelSpec, AcceleratorConfig,
                                   ScenarioResult], ...]:
    """On-device synchronous result of each scaled-family model on each
    accelerator, as ``(spec, hw, result)`` in family-then-hardware order."""
    rows = []
    for spec in scaled_family(library):
        graph = opgraph.pipeline_graph(spec)
        for hw in hardware:
            rows.append((spec, hw, sync_scenario(
                spec, Placement.on_device(hw), graph=graph)))
    return tuple(rows)
