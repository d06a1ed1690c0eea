"""Command-line surface: analyze deployments, sweep design axes, reproduce
the bundled reference tables, and list the available presets.

Output is deterministic (no timestamps, stable ordering) so runs can be
diffed.  Formatting follows the reference tables: milliseconds with two
decimals, Hz with one, memory in GiB printed as "GB".  Exit codes: 0 for
success (including infeasible-but-valid N/A results), 1 for usage or
configuration errors, 2 when a reproduce run misses its tolerances.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import math
import os
import sys
from dataclasses import replace
from itertools import product
from pathlib import Path
from typing import TYPE_CHECKING, Optional, Sequence

from .configio import PresetLibrary, load_presets
from .opgraph import PHASES
from .roofline import GIB
from .scenarios import (
    CLOUD_SERVER,
    DECODING_VARIANTS,
    EDGE_SERVER,
    ON_DEVICE,
    PLACEMENT_KINDS,
    Placement,
    ScenarioResult,
    async_scenario,
    check_scenario,
    decoding_variant_spec,
    dual_system_scenario,
    dual_system_times,
    sync_scenario,
)
from .workload import VlaModelSpec

if TYPE_CHECKING:
    from . import golden

FORMATS = ("table", "csv", "json")
REPRODUCE_IDS = ("T1", "T3", "T4", "T5", "T6", "T8", "T9",
                 "scaling", "collab", "all")
# "scaling" is an alias for T5, so "all" runs each underlying table once.
_ALL_TABLES = ("T1", "T3", "T4", "T5", "T6", "T8", "T9", "collab")


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; we reserve 2 for golden
    failures, so usage errors are remapped to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _str_list(text: str) -> tuple[str, ...]:
    parts = tuple(part.strip() for part in text.split(","))
    if not all(parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated names, got {text!r}")
    return parts


# Parsing leaves the parser unchanged, so one parser serves every call.
@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(
        prog="vla-roofline",
        description="Roofline-based latency/throughput model for "
                    "vision-language-action inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=FORMATS, default="table",
                       help="output format (default: table)")
        p.add_argument("--out", metavar="PATH",
                       help="write output to PATH instead of stdout")

    def add_placement_flags(p):
        p.add_argument("--model", default="pi0", help="model preset name")
        p.add_argument("--hw", default="b100",
                       help="serving accelerator preset")
        p.add_argument("--placement", choices=PLACEMENT_KINDS, default=ON_DEVICE)
        p.add_argument("--net", help="access network preset (server placements)")
        p.add_argument("--cloud-net", help="second hop for cloud-server")
        p.add_argument("--device-hw",
                       help="robot-side accelerator (collaborative)")

    analyze = sub.add_parser(
        "analyze", help="evaluate one model/placement combination")
    add_placement_flags(analyze)
    analyze.add_argument("--chunk", type=int, help="action chunk size")
    analyze.add_argument("--steps", type=int, help="denoising steps")
    analyze.add_argument("--dof", type=int, help="action degrees of freedom")
    analyze.add_argument("--decoding", choices=DECODING_VARIANTS,
                         help="decoding strategy override")
    analyze.add_argument("--context-steps", type=int,
                         help="timesteps of cached camera history")
    analyze.add_argument("--s2-cap", type=float,
                         help="dual-system mode: System-2 rate cap in Hz")
    analyze.add_argument("--async", dest="use_async", action="store_true",
                         help="pipelined serving rate instead of synchronous")
    add_output_flags(analyze)

    sweep = sub.add_parser(
        "sweep", help="evaluate a cartesian grid of design choices")
    add_placement_flags(sweep)
    sweep.add_argument("--chunk", type=_int_list, help="e.g. 5,10,50,250")
    sweep.add_argument("--steps", type=_int_list, help="e.g. 1,10,50")
    sweep.add_argument("--dof", type=_int_list, help="e.g. 7,14,40")
    sweep.add_argument("--decoding", type=_str_list,
                       help=f"subset of {','.join(DECODING_VARIANTS)}")
    sweep.add_argument("--context-steps", type=_int_list,
                       help="e.g. 1,10,100,1000")
    add_output_flags(sweep)

    reproduce = sub.add_parser(
        "reproduce", help="compare modeled tables against bundled references")
    reproduce.add_argument("table", choices=REPRODUCE_IDS)
    add_output_flags(reproduce)

    listing = sub.add_parser("list-presets", help="show addressable presets")
    add_output_flags(listing)

    return parser


# ---------------------------------------------------------------------------
# Record building and rendering
# ---------------------------------------------------------------------------

_DECIMALS = {"_ms": 2, "_hz": 1, "_gb": 2, "_oi": 1}


def _decimals_for(key: str) -> Optional[int]:
    for suffix, digits in _DECIMALS.items():
        if key.endswith(suffix):
            return digits
    return None


def _format_value(key: str, value) -> str:
    """Table and csv text of one value; like strict JSON, a NaN or infinity
    is an error."""
    if value is None:
        return "N/A"
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{key} is {value}, not a finite number")
    digits = _decimals_for(key)
    if digits is not None and isinstance(value, (int, float)):
        return f"{value:.{digits}f}"
    return str(value)


def _json_value(key: str, value):
    digits = _decimals_for(key)
    if digits is not None and isinstance(value, (int, float)):
        return round(value, digits)
    return value


def _json_text(payload) -> str:
    """Strict JSON: a NaN or infinity is an error, not an invalid token."""
    return json.dumps(payload, indent=2, allow_nan=False)


def _csv_text(header: Sequence[str], rows) -> str:
    # Only ``--format csv`` needs the module; the other formats skip its import.
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


def _render_record(record: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_text({k: _json_value(k, v) for k, v in record.items()})
    if fmt == "csv":
        return _csv_text(["key", "value"],
                         ([k, _format_value(k, v)] for k, v in record.items()))
    width = max(len(key) for key in record)
    return "\n".join(f"{key.ljust(width)}  {_format_value(key, value)}"
                     for key, value in record.items())


def _render_rows(rows: list[dict], fmt: str) -> str:
    if not rows:
        return "" if fmt != "json" else "[]"
    columns = list(rows[0])
    if fmt == "json":
        return _json_text(
            [{k: _json_value(k, row[k]) for k in columns} for row in rows])
    cells = [[_format_value(col, row[col]) for col in columns] for row in rows]
    if fmt == "csv":
        return _csv_text(columns, cells)
    widths = [max(len(col), *(len(row[i]) for row in cells))
              for i, col in enumerate(columns)]
    lines = ["  ".join(col.ljust(w) for col, w in zip(columns, widths))]
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def _scenario_record(model_name: str, result: ScenarioResult) -> dict:
    record: dict = {
        "model": model_name,
        "placement": result.placement,
        "feasible": "yes" if result.feasible else "no",
    }
    for phase in PHASES:
        if phase in result.phase_latencies:
            record[f"{phase}_latency_ms"] = result.phase_latencies[phase] * 1e3
    for leg in sorted(result.network_latencies):
        record[f"{leg}_ms"] = result.network_latencies[leg] * 1e3
    record["e2e_latency_ms"] = (result.e2e_latency * 1e3
                                if result.e2e_latency is not None else None)
    record["sync_frequency_hz"] = result.sync_frequency
    if result.async_frequency is not None:
        record["async_frequency_hz"] = result.async_frequency
    for phase in PHASES:
        if phase in result.boundedness:
            record[f"{phase}_bound"] = result.boundedness[phase]
            record[f"{phase}_oi"] = result.operational_intensity[phase]
    record["footprint_gb"] = result.footprint_bytes / GIB
    for i, note in enumerate(result.notes, 1):
        record[f"note_{i}"] = note
    return record


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _configure_spec(base: VlaModelSpec, chunk: Optional[int],
                    steps: Optional[int], dof: Optional[int],
                    decoding: Optional[str]) -> VlaModelSpec:
    changes = {field: value for field, value in (
        ("chunk_size", chunk), ("denoise_steps", steps), ("action_dof", dof))
        if value is not None}
    spec = replace(base, **changes) if changes else base
    if decoding is not None:
        spec = decoding_variant_spec(spec, decoding, spec.chunk_size,
                                     spec.action_dof)
    return spec


def _build_placement(args, lib: PresetLibrary, parser: _Parser) -> Placement:
    hw = lib.accelerator(args.hw)
    if args.placement == ON_DEVICE:
        return Placement.on_device(hw)
    if args.placement == EDGE_SERVER:
        if not args.net:
            parser.error("edge-server placement requires --net")
        return Placement.edge_server(hw, lib.network(args.net))
    if args.placement == CLOUD_SERVER:
        if not (args.net and args.cloud_net):
            parser.error("cloud-server placement requires --net and --cloud-net")
        return Placement.cloud_server(hw, lib.network(args.net),
                                      lib.network(args.cloud_net))
    if not (args.net and args.device_hw):
        parser.error("collaborative placement requires --net and --device-hw")
    return Placement.collaborative(lib.accelerator(args.device_hw), hw,
                                   lib.network(args.net))


def _run_analyze(args, lib: PresetLibrary, parser: _Parser) -> tuple[str, int]:
    spec = _configure_spec(lib.model(args.model), args.chunk, args.steps,
                           args.dof, args.decoding)
    placement = _build_placement(args, lib, parser)
    if args.s2_cap is not None:
        if args.context_steps is not None:
            raise ValueError("dual-system serving does not model cached "
                             "camera history (--context-steps)")
        if args.use_async:
            raise ValueError("dual-system serving already reports its "
                             "asynchronous frequency; drop --async")
        dual = dual_system_scenario(spec, placement, args.s2_cap)
        s1_ms = s2_ms = None
        if dual.e2e_latency is not None:
            s1_ms, s2_ms = (t * 1e3 for t in dual_system_times(dual))
        record = {
            "model": spec.name,
            "placement": dual.placement,
            "s2_cap_hz": args.s2_cap,
            "feasible": "yes" if dual.feasible else "no",
            "s1_latency_ms": s1_ms,
            "s2_latency_ms": s2_ms,
            "sync_frequency_hz": dual.sync_frequency,
            "async_frequency_hz": dual.async_frequency,
        }
        for i, note in enumerate(dual.notes, 1):
            record[f"note_{i}"] = note
    elif args.use_async:
        record = _scenario_record(
            spec.name, async_scenario(spec, placement, args.context_steps))
    else:
        record = _scenario_record(
            spec.name, sync_scenario(spec, placement, args.context_steps))
    return _render_record(record, args.format), 0


# A sweep row is its grid point plus these record keys, None where absent.
_SWEEP_COLUMNS = ("feasible", *(f"{phase}_latency_ms" for phase in PHASES),
                  "e2e_latency_ms", "sync_frequency_hz", "footprint_gb")


def _run_sweep(args, lib: PresetLibrary, parser: _Parser) -> tuple[str, int]:
    base = lib.model(args.model)
    placement = _build_placement(args, lib, parser)
    # Axes iterate in lexicographic name order; values keep user order.
    axes = [(name, values) for name, values in sorted((
        ("chunk", args.chunk),
        ("context_steps", args.context_steps),
        ("decoding", args.decoding),
        ("dof", args.dof),
        ("steps", args.steps),
    )) if values is not None]
    # Every point is configured and checked before any is priced, so a
    # grid with an invalid point exits before pricing anything.
    grid = []
    for combo in product(*(values for _, values in axes)):
        point = dict(zip((name for name, _ in axes), combo))
        spec = _configure_spec(base, point.get("chunk"), point.get("steps"),
                               point.get("dof"), point.get("decoding"))
        check_scenario(spec, placement, point.get("context_steps"))
        grid.append((point, spec))
    rows = []
    for point, spec in grid:
        result = sync_scenario(spec, placement,
                               context_timestep=point.get("context_steps"))
        record = _scenario_record(spec.name, result)
        rows.append({**point,
                     **{col: record.get(col) for col in _SWEEP_COLUMNS}})
    return _render_rows(rows, args.format), 0


def _cell_status(cell: golden.GoldenCell) -> str:
    return {True: "ok", False: "FAIL", None: "info"}[cell.passed]


def _cell_error_text(cell: golden.GoldenCell) -> str:
    rel = cell.relative_error
    return "" if rel is None else f"{rel * 100:+.1f}%"


_CELL_COLUMNS = ("label", "unit", "modeled", "reference", "error", "status")


def _cell_fields(cell: golden.GoldenCell) -> tuple[str, ...]:
    """A golden cell's printed fields, in ``_CELL_COLUMNS`` order."""
    return (cell.label, cell.unit, cell.printed_modeled,
            cell.printed_reference, _cell_error_text(cell),
            _cell_status(cell))


def _run_reproduce(args, lib: PresetLibrary) -> tuple[str, int]:
    # Only this command loads ``golden`` and its reference tables.
    from . import golden
    names = _ALL_TABLES if args.table == "all" else (args.table,)
    groups = [(name, golden.TABLES[name](lib)) for name in names]
    passed = {name: golden.table_passed(cells) for name, cells in groups}
    all_pass = all(passed.values())
    code = 0 if all_pass else 2

    if args.format == "json":
        return _json_text([{
            "table": name,
            "passed": passed[name],
            "cells": [dict(zip(_CELL_COLUMNS, _cell_fields(c))) for c in cells],
        } for name, cells in groups]), code
    if args.format == "csv":
        return _csv_text(("table", *_CELL_COLUMNS),
                         ((name, *_cell_fields(c))
                          for name, cells in groups for c in cells)), code

    lines = []
    for name, cells in groups:
        rows = [(c.label,
                 f"{c.printed_modeled} {c.unit}".rstrip(),
                 f"{c.printed_reference} {c.unit}".rstrip(),
                 _cell_error_text(c), _cell_status(c)) for c in cells]
        widths = [max(len(row[i]) for row in rows) for i in range(4)]
        for row in rows:
            lines.append("  ".join((
                name, row[0].ljust(widths[0]), row[1].rjust(widths[1]),
                row[2].rjust(widths[2]), row[3].rjust(widths[3]), row[4])))
        graded = [c for c in cells if c.passed is not None]
        failed = [c for c in graded if not c.passed]
        verdict = "PASS" if not failed else f"FAIL ({len(failed)} cell(s))"
        lines.append(f"{name}: {verdict} — {len(graded)} graded, "
                     f"{len(cells) - len(graded)} informational")
        lines.append("")
    lines.append("overall: " + ("PASS" if all_pass else "FAIL"))
    return "\n".join(lines), code


def _run_list_presets(args, lib: PresetLibrary) -> tuple[str, int]:
    names = {
        "models": sorted(lib.models),
        "components": sorted(lib.components),
        "hardware": sorted(lib.hardware),
        "networks": sorted(lib.networks),
    }
    if args.format == "json":
        return _json_text({k: list(v) for k, v in names.items()}), 0
    if args.format == "csv":
        kinds = {"models": "model", "components": "component",
                 "hardware": "hardware", "networks": "network"}
        return _csv_text(["kind", "name"],
                         ([kinds[group], name]
                          for group, group_names in names.items()
                          for name in group_names)), 0
    lines = ["models:"]
    for name in names["models"]:
        spec = lib.models[name]
        expert = spec.action_expert.name if spec.action_expert else "none"
        lines.append(f"  {name:<14} {spec.vision_encoder.name} + "
                     f"{spec.vlm.name} + {expert}, {spec.decoding_mode}, "
                     f"chunk {spec.chunk_size}, {spec.denoise_steps} steps")
    lines.append("components:")
    for name in names["components"]:
        cfg = lib.components[name]
        lines.append(f"  {name:<14} {cfg.num_layers} layers, hidden "
                     f"{cfg.hidden_size}, ffn {cfg.intermediate_size}, "
                     f"{cfg.num_q_heads}Q/{cfg.num_kv_heads}KV, "
                     f"head dim {cfg.head_dim}")
    lines.append("hardware:")
    for name in names["hardware"]:
        hw = lib.hardware[name]
        lines.append(f"  {name:<14} {hw.peak(2) / 1e12:.0f} TFLOP/s bf16, "
                     f"{hw.mem_bandwidth / 1e9:.0f} GB/s, "
                     f"{hw.mem_capacity / GIB:.0f} GB")
    lines.append("networks:")
    for name in names["networks"]:
        net = lib.networks[name]
        lines.append(f"  {name:<14} {net.upload_bw / 1e6:.0f} Mbps up / "
                     f"{net.download_bw / 1e6:.0f} Mbps down, base "
                     f"{net.base_latency * 1e3:.2f} ms")
    return "\n".join(lines), 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        lib = load_presets()
        if args.command == "analyze":
            text, code = _run_analyze(args, lib, parser)
        elif args.command == "sweep":
            text, code = _run_sweep(args, lib, parser)
        elif args.command == "reproduce":
            text, code = _run_reproduce(args, lib)
        else:
            text, code = _run_list_presets(args, lib)
    # Float arithmetic on many large counts can still overflow.
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            Path(args.out).write_text(text + "\n", encoding="utf-8")
        except OSError as exc:
            print(f"error: {args.out}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    else:
        try:
            print(text)
            sys.stdout.flush()
        except BrokenPipeError:
            # The reader stopped early (``| head``).  Point stdout at devnull
            # so that the flush at exit does not raise again.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
