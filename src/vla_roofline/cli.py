"""Command-line surface: analyze deployments, sweep design axes, reproduce
the bundled reference tables, and list the available presets.

Output is deterministic (no timestamps, stable ordering) so runs can be
diffed.  Formatting follows the reference tables: milliseconds with two
decimals, Hz with one, memory in GiB printed as "GB".  Tables have one
layout rule: columns are joined by two spaces and all but the last padded
to their widest cell, and reproduce's numeric columns are right-aligned.
Exit codes: 0 for success (including infeasible-but-valid N/A results), 1
for usage or configuration errors, 2 when a reproduce run misses its
tolerances.
"""

from __future__ import annotations

import functools
import io
import math
import os
import sys
from itertools import product
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional, Sequence

from .configio import PresetLibrary, load_presets
from .opgraph import PHASES
from .record import replace
from .roofline import GIB
from .scenarios import (
    DECODING_VARIANTS,
    ON_DEVICE,
    PLACEMENT_FIELDS,
    PLACEMENT_KINDS,
    Placement,
    ScenarioResult,
    async_scenario,
    decoding_variant_spec,
    dual_system_scenario,
    dual_system_times,
    sync_scenario,
    sync_sweep,
)
from .workload import DIFFUSION, VlaModelSpec

if TYPE_CHECKING:
    import argparse

    from . import golden

FORMATS = ("table", "csv", "json")
REPRODUCE_IDS = ("T1", "T3", "T4", "T5", "T6", "T8", "T9",
                 "scaling", "collab", "all")
# "scaling" is an alias for T5, so "all" runs each underlying table once.
_ALL_TABLES = ("T1", "T3", "T4", "T5", "T6", "T8", "T9", "collab")


# argparse is imported only to print help or a usage error; a well-formed
# command line is read by ``_read_argv``.
def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        import argparse

        raise argparse.ArgumentTypeError(f"expected comma-separated ints, got {text!r}")


def _str_list(text: str) -> tuple[str, ...]:
    parts = tuple(part.strip() for part in text.split(","))
    if not all(parts):
        import argparse

        raise argparse.ArgumentTypeError(
            f"expected comma-separated names, got {text!r}")
    return parts


# Each subcommand's help line and its arguments, as ``add_argument`` takes
# them: ``build_parser`` builds argparse from this one declaration, and
# ``_read_argv`` reads a well-formed command line by it.
_OUTPUT_FLAGS = (
    ("--format", dict(choices=FORMATS, default="table",
                      help="output format (default: table)")),
    ("--out", dict(metavar="PATH",
                   help="write output to PATH instead of stdout")),
)
_PLACEMENT_FLAGS = (
    ("--model", dict(default="pi0", help="model preset name")),
    ("--hw", dict(default="b100", help="serving accelerator preset")),
    ("--placement", dict(choices=PLACEMENT_KINDS, default=ON_DEVICE)),
    ("--net", dict(help="access network preset (server placements)")),
    ("--cloud-net", dict(help="second hop for cloud-server")),
    ("--device-hw", dict(help="robot-side accelerator (collaborative)")),
)
_COMMANDS = {
    "analyze": ("evaluate one model/placement combination", (
        *_PLACEMENT_FLAGS,
        ("--chunk", dict(type=int, help="action chunk size")),
        ("--steps", dict(type=int, help="denoising steps")),
        ("--dof", dict(type=int, help="action degrees of freedom")),
        ("--decoding", dict(choices=DECODING_VARIANTS,
                            help="decoding strategy override")),
        ("--context-steps", dict(type=int,
                                 help="timesteps of cached camera history")),
        ("--s2-cap", dict(type=float,
                          help="dual-system mode: System-2 rate cap in Hz")),
        ("--async", dict(dest="use_async", action="store_true",
                         help="pipelined serving rate instead of synchronous")),
        *_OUTPUT_FLAGS)),
    "sweep": ("evaluate a cartesian grid of design choices", (
        *_PLACEMENT_FLAGS,
        ("--chunk", dict(type=_int_list, help="e.g. 5,10,50,250")),
        ("--steps", dict(type=_int_list, help="e.g. 1,10,50")),
        ("--dof", dict(type=_int_list, help="e.g. 7,14,40")),
        ("--decoding", dict(type=_str_list,
                            help=f"subset of {','.join(DECODING_VARIANTS)}")),
        ("--context-steps", dict(type=_int_list, help="e.g. 1,10,100,1000")),
        *_OUTPUT_FLAGS)),
    "reproduce": ("compare modeled tables against bundled references", (
        ("table", dict(choices=REPRODUCE_IDS)),
        *_OUTPUT_FLAGS)),
    "list-presets": ("show addressable presets", _OUTPUT_FLAGS),
}


# Parsing leaves the parser unchanged, so one parser serves every call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        """argparse exits with status 2 on bad usage; we reserve 2 for
        golden failures, so usage errors are remapped to 1."""

        def error(self, message):
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = _Parser(
        prog="vla-roofline",
        description="Roofline-based latency/throughput model for "
                    "vision-language-action inference.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, flags) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=summary)
        for name, spec in flags:
            command_parser.add_argument(name, **spec)
    return parser


def _reading(flags) -> tuple[dict, list, dict]:
    """What ``_read_argv`` reads of a command's ``flags``: each option
    string with its dest, converter and choices (no converter for a
    switch), each positional likewise in order, and the defaults by dest."""
    options, positionals, defaults = {}, [], {}
    for name, spec in flags:
        switch = spec.get("action") == "store_true"
        dest = spec.get("dest", name.lstrip("-").replace("-", "_"))
        defaults[dest] = spec.get("default", False if switch else None)
        entry = (dest, None if switch else spec.get("type", str),
                 spec.get("choices"))
        if name.startswith("-"):
            options[name] = entry
        else:
            positionals.append(entry)
    return options, positionals, defaults


_READINGS = {command: _reading(flags)
             for command, (_, flags) in _COMMANDS.items()}


def _read_argv(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The arguments ``build_parser().parse_args(argv)`` gives, or None
    where only argparse may read ``argv``.  Read here: a known command, then
    exact option strings and positionals, each value one that does not
    start with "-", that its type converts and that is among its choices,
    every positional filled.  Everything else, help and every usage error
    among it, is argparse's, with its messages and exit codes."""
    if not argv or argv[0] not in _READINGS:
        return None
    options, positionals, defaults = _READINGS[argv[0]]
    values = {"command": argv[0], **defaults}
    unfilled = iter(positionals)
    tokens = iter(argv[1:])
    for token in tokens:
        if token.startswith("-"):
            entry = options.get(token)
            if entry is None:
                return None
            dest, convert, choices = entry
            if convert is None:
                values[dest] = True
                continue
            # A missing value reads as one that starts with "-".
            token = next(tokens, "-")
            if token.startswith("-"):
                return None
        else:
            dest, convert, choices = next(unfilled, (None, None, None))
            if dest is None:
                return None
        try:
            value = convert(token)
        # Whatever a converter raises, argparse reports (or raises) it.
        except Exception:
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
    if next(unfilled, None) is not None:
        return None
    return SimpleNamespace(**values)


# ---------------------------------------------------------------------------
# Record building and rendering
# ---------------------------------------------------------------------------

# A column's decimals, by the last three characters of its name.
_DECIMALS = {"_ms": 2, "_hz": 1, "_gb": 2, "_oi": 1}


def _project_columns(names: Sequence[str], columns: Sequence[Sequence],
                     fmt: str) -> list[tuple]:
    """The rows of a table given as value ``columns``, one per name of
    ``names``, with each cell as ``fmt`` writes it: text for table and csv,
    else a JSON value.  Only ints and floats are rounded, and None is N/A
    in text.  Every format refuses a NaN or infinity, as strict JSON does,
    and names the first in row-major order."""
    if not all(all(map(math.isfinite, [v for v in column
                                       if isinstance(v, float)]))
               for column in columns):
        for row in zip(*columns):
            for name, value in zip(names, row):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{name} is {value}, not a finite number")
    cells = []
    for name, column in zip(names, columns):
        digits = _DECIMALS.get(name[-3:])
        if fmt != "json":
            # An empty format spec writes a number as ``str`` does.
            spec = "" if digits is None else f".{digits}f"
            column = [format(v, spec) if isinstance(v, (int, float))
                      else "N/A" if v is None else str(v) for v in column]
        elif digits is not None:
            column = [round(v, digits) if isinstance(v, (int, float)) else v
                      for v in column]
        cells.append(column)
    return list(zip(*cells))


def _unserializable(value):
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


_CONTAINERS = (dict, list, tuple)


@functools.cache
def _json_encoder(separator: str):
    """The C encoder of ``json.encoder``, with ``indent=None`` and
    ``separator`` between items.  With a comma, a line break and a line's
    indent, a container one level up that holds no containers comes out in
    ``indent=2`` layout, but for the line breaks just inside its brackets."""
    # Only ``--format json`` needs the C extension; the other formats skip
    # its import.
    from _json import encode_basestring_ascii, make_encoder

    return make_encoder(None, _unserializable, encode_basestring_ascii, None,
                        ": ", separator, False, False, False)


def _json_text(value, depth: int = 0) -> str:
    """``value`` as ``json.dumps(value, indent=2, allow_nan=False)`` writes
    it, nested ``depth`` levels deep, without importing ``json``.  Only a
    dict may hold containers, and it is written here; the rest are written
    by the C encoder.  Dict keys are strings."""
    if not isinstance(value, _CONTAINERS):
        return "".join(_json_encoder("\n")(value, 0))
    is_dict = isinstance(value, dict)
    if not value:
        return "{}" if is_dict else "[]"
    inner, outer = "  " * (depth + 1), "  " * depth
    items = value.values() if is_dict else value
    if not any(isinstance(item, _CONTAINERS) for item in items):
        text = "".join(_json_encoder(",\n" + inner)(value, 0))
        return f"{text[0]}\n{inner}{text[1:-1]}\n{outer}{text[-1]}"
    from _json import encode_basestring_ascii

    return ("{\n" + inner + f",\n{inner}".join(
        f"{encode_basestring_ascii(key)}: {_json_text(item, depth + 1)}"
        for key, item in value.items()) + f"\n{outer}}}")


def _json_rows(names: Sequence[str], rows: Sequence[Sequence],
               depth: int = 0) -> str:
    """Rows of scalars, one per column of non-empty ``names``, as
    ``json.dumps(indent=2)`` writes a list of objects ``depth`` levels
    deep.  Every value is encoded in one C-encoder call, one per line: with
    ensure_ascii no encoded scalar holds a raw newline, so a count of lines
    other than one per value (a container of two or more items) is a
    ValueError."""
    if not rows:
        return "[]"
    from _json import encode_basestring_ascii

    values = [value for row in rows for value in row]
    lines = "".join(_json_encoder("\n")(values, 0))[1:-1].split("\n")
    if len(lines) != len(rows) * len(names):
        raise ValueError("JSON rows need one scalar per column")
    outer = "  " * depth
    inner, deep = outer + "  ", outer + "    "
    # The names go into a %-template, so a "%" in one is doubled.
    fields = ",\n".join(
        f"{deep}{encode_basestring_ascii(name).replace('%', '%%')}: %s"
        for name in names)
    template = ",\n".join([f"{inner}{{\n{fields}\n{inner}}}"] * len(rows))
    return f"[\n{template % tuple(lines)}\n{outer}]"


def _csv_text(header: Sequence[str], rows) -> str:
    # Only ``--format csv`` needs the module; the other formats skip its import.
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue().rstrip("\n")


# How ``_aligned`` pads a column's cells: "<" on the right, ">" on the left.
_PAD = {"<": str.ljust, ">": str.rjust}


def _aligned(rows: Sequence[Sequence[str]], align: str) -> str:
    """Lines of text cells, the columns joined by two spaces and each but
    the last padded to its widest cell as its character of ``align`` says."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    pads = [_PAD[side] for side in align]
    return "\n".join("  ".join([*(pad(cell, width) for pad, cell, width
                                  in zip(pads, row, widths)), row[-1]])
                     for row in rows)


# A sweep row is its grid point plus these record keys, None where absent.
_SWEEP_COLUMNS = ("feasible", *(f"{phase}_latency_ms" for phase in PHASES),
                  "e2e_latency_ms", "sync_frequency_hz", "footprint_gb")


def _result_columns(results: Sequence[ScenarioResult]) -> list[list]:
    """The ``_SWEEP_COLUMNS`` of ``results``, one value list per column:
    the one place a result field becomes a printed value."""
    return [["yes" if r.feasible else "no" for r in results],
            *([None if (t := r.phase_latencies.get(phase)) is None
               else t * 1e3 for r in results] for phase in PHASES),
            [None if r.e2e_latency is None else r.e2e_latency * 1e3
             for r in results],
            [r.sync_frequency for r in results],
            [r.footprint_bytes / GIB for r in results]]


def _scenario_record(result: ScenarioResult) -> dict:
    feasible, *phases, e2e, sync, footprint = (
        column[0] for column in _result_columns([result]))
    record = {"placement": result.placement, "feasible": feasible}
    record.update((f"{phase}_latency_ms", ms)
                  for phase, ms in zip(PHASES, phases) if ms is not None)
    for leg in sorted(result.network_latencies):
        record[f"{leg}_ms"] = result.network_latencies[leg] * 1e3
    record["e2e_latency_ms"] = e2e
    record["sync_frequency_hz"] = sync
    if result.async_frequency is not None:
        record["async_frequency_hz"] = result.async_frequency
    for phase in PHASES:
        if phase in result.boundedness:
            record[f"{phase}_bound"] = result.boundedness[phase]
            record[f"{phase}_oi"] = result.operational_intensity[phase]
    record["footprint_gb"] = footprint
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
        spec = decoding_variant_spec(spec, decoding)
    return spec


# The flag that sets each optional Placement field, in checking order.
_FIELD_FLAGS = {"access_net": "--net", "cloud_net": "--cloud-net",
                "device_hw": "--device-hw"}


def _build_placement(args, lib: PresetLibrary) -> Placement:
    hw = lib.accelerator(args.hw)
    required = [_FIELD_FLAGS[field]
                for field in PLACEMENT_FIELDS[args.placement]]
    for flag in _FIELD_FLAGS.values():
        value = getattr(args, flag[2:].replace("-", "_"))
        if flag in required and not value:
            raise ValueError(f"{args.placement} placement requires "
                             + " and ".join(required))
        if flag not in required and value is not None:
            raise ValueError(f"{args.placement} placement does not use {flag}")
    return Placement(
        args.placement, hw,
        device_hw=args.device_hw and lib.accelerator(args.device_hw),
        access_net=args.net and lib.network(args.net),
        cloud_net=args.cloud_net and lib.network(args.cloud_net))


def _run_analyze(args, lib: PresetLibrary) -> tuple[str, int]:
    spec = _configure_spec(lib.model(args.model), args.chunk, args.steps,
                           args.dof, args.decoding)
    placement = _build_placement(args, lib)
    if args.s2_cap is not None:
        if args.context_steps is not None:
            raise ValueError("dual-system serving does not model cached "
                             "camera history (--context-steps)")
        if args.use_async:
            raise ValueError("dual-system serving already reports its "
                             "asynchronous frequency; drop --async")
        result = dual_system_scenario(spec, placement, args.s2_cap)
        s1_ms = s2_ms = None
        if result.e2e_latency is not None:
            s1_ms, s2_ms = (t * 1e3 for t in dual_system_times(result))
        record = {
            "placement": result.placement,
            "s2_cap_hz": args.s2_cap,
            "feasible": "yes" if result.feasible else "no",
            "s1_latency_ms": s1_ms,
            "s2_latency_ms": s2_ms,
            "sync_frequency_hz": result.sync_frequency,
            "async_frequency_hz": result.async_frequency,
        }
    else:
        scenario = async_scenario if args.use_async else sync_scenario
        result = scenario(spec, placement, args.context_steps)
        record = _scenario_record(result)
    record = {"model": spec.name, **record, **{
        f"note_{i}": note for i, note in enumerate(result.notes, 1)}}
    (row,) = _project_columns(list(record), [[v] for v in record.values()],
                              args.format)
    cells = list(zip(record, row))
    if args.format == "json":
        return _json_text(dict(cells)), 0
    if args.format == "csv":
        return _csv_text(["key", "value"], cells), 0
    return _aligned(cells, "<"), 0


def _run_sweep(args, lib: PresetLibrary) -> tuple[str, int]:
    base = lib.model(args.model)
    placement = _build_placement(args, lib)
    # Axes iterate in lexicographic name order; values keep user order.  An
    # axis the grid does not set takes the one value None and has no column.
    axes = {"chunk": args.chunk, "context_steps": args.context_steps,
            "decoding": args.decoding, "dof": args.dof, "steps": args.steps}
    combos = list(product(*((None,) if values is None else values
                            for values in axes.values())))

    # Each count triple and each decoding variant of the base is configured
    # once.  A point configures its triple on the base before its decoding,
    # as ``_configure_spec`` does, so the grid's first error is the same.
    triples: dict = {}
    variants: dict = {}

    # sync_sweep checks each point as this generator configures it, and all
    # of them before it prices any: a grid exits on its first invalid point,
    # in grid order, before pricing anything.
    def points():
        for chunk, context_steps, decoding, dof, steps in combos:
            counts = (chunk, steps, dof)
            if counts not in triples:
                triples[counts] = _configure_spec(base, *counts, None)
            spec = triples[counts]
            if decoding is not None:
                if decoding not in variants:
                    variants[decoding] = decoding_variant_spec(base, decoding)
                if decoding != DIFFUSION:
                    spec = _configure_spec(variants[decoding], *counts, None)
            yield spec, context_steps

    grid = {name: column for (name, values), column
            in zip(axes.items(), zip(*combos)) if values is not None}
    header = (*grid, *_SWEEP_COLUMNS)
    rows = _project_columns(header, [*grid.values(), *_result_columns(
        sync_sweep(points(), placement))], args.format)
    if args.format == "json":
        return _json_rows(header, rows), 0
    if args.format == "csv":
        return _csv_text(header, rows), 0
    return _aligned([header, *rows], "<" * (len(header) - 1)), 0


# A golden cell's printed status, by its verdict.
_CELL_STATUS = {True: "ok", False: "FAIL", None: "info"}


_CELL_COLUMNS = ("label", "unit", "modeled", "reference", "error", "status")


def _cell_fields(cell: golden.GoldenCell) -> tuple[str, ...]:
    """A golden cell's printed fields, in ``_CELL_COLUMNS`` order."""
    rel = cell.relative_error
    return (cell.label, cell.unit, cell.printed_modeled,
            cell.printed_reference,
            "" if rel is None else f"{rel * 100:+.1f}%",
            _CELL_STATUS[cell.passed])


def _run_reproduce(args, lib: PresetLibrary) -> tuple[str, int]:
    # Only this command loads ``golden`` and its reference tables.
    from . import golden
    names = _ALL_TABLES if args.table == "all" else (args.table,)
    # One memo for the command: the tables build each distinct phase once.
    memo: dict = {}
    groups = [(name, golden.TABLES[name](lib, memo)) for name in names]
    passed = {name: golden.table_passed(cells) for name, cells in groups}
    all_pass = all(passed.values())
    code = 0 if all_pass else 2

    if args.format == "json":
        return "[\n" + ",\n".join(
            f'  {{\n    "table": {_json_text(name)},\n'
            f'    "passed": {_json_text(passed[name])},\n    "cells": '
            + _json_rows(_CELL_COLUMNS, [_cell_fields(c) for c in cells], 2)
            + "\n  }" for name, cells in groups) + "\n]", code
    if args.format == "csv":
        return _csv_text(("table", *_CELL_COLUMNS),
                         [(name, *_cell_fields(c))
                          for name, cells in groups for c in cells]), code

    lines = []
    for name, cells in groups:
        lines.append(_aligned(
            [(name, label, f"{modeled} {unit}".rstrip(),
              f"{reference} {unit}".rstrip(), error, status)
             for label, unit, modeled, reference, error, status
             in map(_cell_fields, cells)], "<<>>>"))
        graded = [c for c in cells if c.passed is not None]
        failed = [c for c in graded if not c.passed]
        verdict = "PASS" if not failed else f"FAIL ({len(failed)} cell(s))"
        lines.append(f"{name}: {verdict} — {len(graded)} graded, "
                     f"{len(cells) - len(graded)} informational")
        lines.append("")
    lines.append("overall: " + ("PASS" if all_pass else "FAIL"))
    return "\n".join(lines), code


# The library's preset groups, in listing order.  A csv row names its
# group in the singular, as its kind.
_PRESET_GROUPS = ("models", "components", "hardware", "networks")


def _describe(group: str, preset) -> str:
    """One preset's summary in the ``list-presets`` table."""
    if group == "models":
        expert = preset.action_expert.name if preset.action_expert else "none"
        return (f"{preset.vision_encoder.name} + {preset.vlm.name} + "
                f"{expert}, {preset.decoding_mode}, chunk "
                f"{preset.chunk_size}, {preset.denoise_steps} steps")
    if group == "components":
        return (f"{preset.num_layers} layers, hidden {preset.hidden_size}, "
                f"ffn {preset.intermediate_size}, {preset.num_q_heads}Q/"
                f"{preset.num_kv_heads}KV, head dim {preset.head_dim}")
    if group == "hardware":
        return (f"{preset.peak_flops / 1e12:.0f} TFLOP/s bf16, "
                f"{preset.mem_bandwidth / 1e9:.0f} GB/s, "
                f"{preset.mem_capacity / GIB:.0f} GB")
    return (f"{preset.upload_bw / 1e6:.0f} Mbps up / "
            f"{preset.download_bw / 1e6:.0f} Mbps down, base "
            f"{preset.base_latency * 1e3:.2f} ms")


def _run_list_presets(args, lib: PresetLibrary) -> tuple[str, int]:
    groups = {group: sorted(getattr(lib, group).items())
              for group in _PRESET_GROUPS}
    if args.format == "json":
        return _json_text({group: [name for name, _ in presets]
                           for group, presets in groups.items()}), 0
    if args.format == "csv":
        return _csv_text(("kind", "name"),
                         [(group.removesuffix("s"), name)
                          for group, presets in groups.items()
                          for name, _ in presets]), 0
    lines = []
    for group, presets in groups.items():
        lines.append(f"{group}:")
        lines.extend(f"  {name:<14} {_describe(group, preset)}"
                     for name, preset in presets)
    return "\n".join(lines), 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        args = build_parser().parse_args(argv)
    try:
        if args.out == "":
            raise ValueError("--out needs a file path, not an empty string")
        lib = load_presets()
        if args.command == "analyze":
            text, code = _run_analyze(args, lib)
        elif args.command == "sweep":
            text, code = _run_sweep(args, lib)
        elif args.command == "reproduce":
            text, code = _run_reproduce(args, lib)
        else:
            text, code = _run_list_presets(args, lib)
    # Float arithmetic on many large counts can still overflow.
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
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
