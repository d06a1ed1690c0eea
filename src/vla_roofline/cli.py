"""Command-line surface: analyze deployments, sweep design axes, reproduce
the bundled reference tables, and list the available presets.

This module reads the command line and runs ``analyze``; the batch
commands and the argparse parser live in ``commands``, which ``main``
imports only when one of them runs or argparse must print help or a usage
error.  Output is deterministic (no timestamps, stable ordering) so runs
can be diffed.  Formatting follows the reference tables: milliseconds with two
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
from itertools import repeat
from types import SimpleNamespace
from typing import Optional, Sequence

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
)
from .workload import DIFFUSION, VlaModelSpec

FORMATS = ("table", "csv", "json")
REPRODUCE_IDS = ("T1", "T3", "T4", "T5", "T6", "T8", "T9",
                 "scaling", "collab", "all")
# "scaling" is an alias for T5, so "all" runs each underlying table once.
_ALL_TABLES = ("T1", "T3", "T4", "T5", "T6", "T8", "T9", "collab")


# argparse is imported only to print help or a usage error, by
# ``commands.build_parser``; a well-formed command line is read by
# ``_read_argv``, so these converters import it only to raise.
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
# them: ``commands.build_parser`` builds argparse from this one
# declaration, and ``_read_argv`` reads a well-formed command line by it.
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
    """The arguments ``commands.build_parser().parse_args(argv)`` gives, or
    None where only argparse may read ``argv``.  Read here: a known command,
    then exact option strings and positionals, each value one that does not
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

# Decimals of a printed number by unit: a column name after its last "_".
_DECIMALS = {"ms": 2, "hz": 1, "gb": 2, "oi": 1, "flops/b": 1}


def _project_columns(names: Sequence[str], columns: Sequence[Sequence],
                     fmt: str) -> list[tuple]:
    """The rows of a table given as value ``columns``, one per name of
    ``names``, with each cell as ``fmt`` writes it: text for table and csv,
    else a JSON value.  Only ints and floats are rounded, and None is N/A
    in text.  Every format refuses a NaN or infinity, as strict JSON does,
    and names the first in row-major order."""
    # A column of floats is checked and rounded in C, any other per value.
    plain = [all(map(isinstance, column, repeat(float))) for column in columns]
    if not all(all(map(math.isfinite, column if floats else [
            v for v in column if isinstance(v, float)]))
               for column, floats in zip(columns, plain)):
        for row in zip(*columns):
            for name, value in zip(names, row):
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{name} is {value}, not a finite number")
    cells = []
    for name, column, floats in zip(names, columns, plain):
        digits = _DECIMALS.get(name.rpartition("_")[2])
        if fmt != "json":
            # An empty format spec writes a number as ``str`` does.
            spec = "" if digits is None else f".{digits}f"
            column = [format(v, spec) if isinstance(v, (int, float))
                      else "N/A" if v is None else str(v) for v in column]
        elif digits is not None:
            column = (list(map(round, column, repeat(digits))) if floats
                      else [round(v, digits) if isinstance(v, (int, float))
                            else v for v in column])
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


def _csv_text(header: Sequence[str], rows) -> str:
    # Only ``--format csv`` needs the module; the other formats skip its import.
    import csv

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerows([header, *rows])
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
    for phase, bound in result.boundedness.items():
        record[f"{phase}_bound"] = bound
        record[f"{phase}_oi"] = result.operational_intensity[phase]
    record["footprint_gb"] = footprint
    return record


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _configure_spec(base: VlaModelSpec, chunk: Optional[int],
                    steps: Optional[int], dof: Optional[int],
                    decoding: Optional[str]) -> VlaModelSpec:
    spec = base
    if (chunk, steps, dof) != (None, None, None):
        spec = replace(
            base, chunk_size=base.chunk_size if chunk is None else chunk,
            denoise_steps=base.denoise_steps if steps is None else steps,
            action_dof=base.action_dof if dof is None else dof)
    if decoding is not None:
        spec = decoding_variant_spec(spec, decoding)
    return spec


def _check_steps(spec: VlaModelSpec, steps: Optional[int]) -> None:
    if steps is not None and spec.decoding_mode != DIFFUSION:
        raise ValueError(f"--steps sets denoising passes, which "
                         f"{spec.decoding_mode} decoding does not run")


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
    # The order ``commands._run_sweep`` checks in, so both report one error.
    base = lib.model(args.model)
    placement = _build_placement(args, lib)
    spec = _configure_spec(base, args.chunk, args.steps, args.dof,
                           args.decoding)
    _check_steps(spec, args.steps)
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
        record = {"placement": result.placement, "s2_cap_hz": args.s2_cap,
                  "feasible": "yes" if result.feasible else "no",
                  "s1_latency_ms": s1_ms, "s2_latency_ms": s2_ms,
                  "sync_frequency_hz": result.sync_frequency,
                  "async_frequency_hz": result.async_frequency}
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _read_argv(argv)
    if args is None:
        from .commands import build_parser

        args = build_parser().parse_args(argv)
    try:
        if args.out == "":
            raise ValueError("--out needs a file path, not an empty string")
        lib = load_presets()
        if args.command == "analyze":
            text, code = _run_analyze(args, lib)
        else:
            from . import commands

            # Each batch command runs ``commands._run_<command>``.
            run = getattr(commands, f"_run_{args.command.replace('-', '_')}")
            text, code = run(args, lib)
    # Float arithmetic on many large counts can still overflow.
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out is not None:
        from pathlib import Path

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
