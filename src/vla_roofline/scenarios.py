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
caller owns, which keeps each phase under the values that define it and
each price under the accelerator figures it reads.  Calls that share one,
for any mix of models, context steps and placements, build each distinct
phase once; :func:`sync_sweep` gives its points one, and ``reproduce``
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
    scaled_family,
    weight_bytes,
)

ON_DEVICE = "on-device"
EDGE_SERVER = "edge-server"
CLOUD_SERVER = "cloud-server"
COLLABORATIVE = "collaborative"
PLACEMENT_KINDS = (ON_DEVICE, EDGE_SERVER, CLOUD_SERVER, COLLABORATIVE)


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


def _priced_phase(memo: dict, key, hw: AcceleratorConfig, build,
                  *args) -> Optional[tuple[float, int, int]]:
    """``price_phase`` on ``hw`` of the runs of ``build(*args)``, or
    ``None`` for no runs.  A phase builder emits each distinct operator in
    one run, so its non-zero runs are the runs a graph merge would keep,
    and no operator is hashed.  ``memo[key]`` holds the runs and their
    prices, keyed by the figures ``price_phase`` reads."""
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = ([run for run in build(*args) if run[1]], {})
    runs, prices = entry
    figures = (hw.peak(), hw.mem_bandwidth)
    if figures not in prices:
        prices[figures] = roofline.price_phase(runs, hw) if runs else None
    return prices[figures]


def _breakdown(spec: VlaModelSpec, context_timestep: Optional[int],
               hw: AcceleratorConfig, action_hw: Optional[AcceleratorConfig],
               memo: Optional[dict],
               ) -> tuple[dict[str, float], dict[str, float], dict[str, str]]:
    """``phase_breakdown(pipeline_graph(spec, context_timestep), hw,
    action_hw)``, one phase at a time through ``memo``, each keyed by the
    values its builder reads.  An operator's phase is part of its identity
    and each phase is priced in run order, so the floats are the graph's,
    bit for bit."""
    if memo is None:
        memo = {}
    hardware = roofline.phase_hardware(hw, action_hw)
    prefix = spec.prefix_tokens()
    history = opgraph.context_history(spec, context_timestep)
    # The VLM and action builders both read the VLM stack, the prefix and
    # the history: their phases share one inner memo under those values,
    # which a point then hashes once.
    context = memo.setdefault((spec.vlm, prefix, history), {})
    priced = {
        opgraph.VISION: _priced_phase(
            memo, (opgraph.VISION, spec.vision_encoder, spec.num_cameras,
                   spec.tokens_per_image, spec.vlm.hidden_size),
            hardware[opgraph.VISION], opgraph.vision_runs, spec),
        opgraph.VLM: _priced_phase(
            context, opgraph.VLM, hardware[opgraph.VLM], opgraph.vlm_runs,
            spec, context_timestep),
        # The other fields action_runs reads, not the spec: hashing a spec
        # hashes every one of its stacks.
        opgraph.ACTION: _priced_phase(
            context, (spec.decoding_mode, spec.action_expert,
                      spec.chunk_size, spec.denoise_steps, spec.action_dof),
            hardware[opgraph.ACTION], opgraph.action_runs, spec,
            context_timestep),
    }
    return roofline.phase_figures(
        {phase: sums for phase, sums in priced.items() if sums is not None},
        hardware)


def sync_scenario(spec: VlaModelSpec, placement: Placement,
                  context_timestep: Optional[int] = None,
                  memo: Optional[dict] = None) -> ScenarioResult:
    """Synchronous serving: one full round trip per control step."""
    check_scenario(spec, placement, context_timestep)
    if placement.kind == COLLABORATIVE:
        return collaborative_scenario(spec, placement, memo)
    hw = placement.hw
    footprint = roofline.memory_footprint(spec, context_timestep)
    if footprint > hw.mem_capacity:
        return _infeasible(spec, placement, footprint, hw)

    latencies, intensity, labels = _breakdown(
        spec, context_timestep, hw, None, memo)
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
    obs = netmodel.observation_payload(spec)
    act = netmodel.action_payload(spec)
    for hop in placement.network_path():
        rates.append(hop.upload_bw * hop.efficiency / (8 * obs.bytes))
        rates.append(hop.download_bw * hop.efficiency / (8 * act.bytes))
    return replace(result, async_frequency=min(rates))


def collaborative_scenario(spec: VlaModelSpec, placement: Placement,
                           memo: Optional[dict] = None) -> ScenarioResult:
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

    latencies, intensity, labels = _breakdown(
        spec, None, server, device, memo)

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


def decoding_variant_spec(spec: VlaModelSpec, variant: str, chunk: int,
                           dof: int) -> VlaModelSpec:
    base = spec
    if (chunk, dof) != (spec.chunk_size, spec.action_dof):
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
                  memo: Optional[dict] = None,
                  ) -> tuple[tuple[VlaModelSpec, AcceleratorConfig,
                                   ScenarioResult], ...]:
    """On-device synchronous result of each scaled-family model on each
    accelerator, as ``(spec, hw, result)`` in family-then-hardware order,
    through ``memo`` (a fresh one when omitted)."""
    if memo is None:
        memo = {}
    return tuple((spec, hw, sync_scenario(spec, Placement.on_device(hw),
                                          memo=memo))
                 for spec in scaled_family(library) for hw in hardware)
