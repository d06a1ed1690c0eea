"""The batch commands, ``sweep``, ``reproduce`` and ``list-presets``, their
JSON row writers, and the argparse parser of every command.

``cli.main`` imports this module only when one of these commands runs or
argparse must print help or a usage error, so a well-formed ``analyze``
never compiles it.  Rows go through the projection of ``cli``.
"""

from __future__ import annotations

import functools
import sys
from itertools import chain, product
from typing import TYPE_CHECKING, Sequence

from .cli import (
    _ALL_TABLES,
    _COMMANDS,
    _DECIMALS,
    _SWEEP_COLUMNS,
    _aligned,
    _build_placement,
    _check_steps,
    _configure_spec,
    _csv_text,
    _json_encoder,
    _json_text,
    _project_columns,
    _result_columns,
)
from .configio import PresetLibrary
from .roofline import GIB
from .scenarios import decoding_variant_spec, sync_sweep
from .workload import DIFFUSION

if TYPE_CHECKING:
    import argparse

    from . import golden


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


def _row_template(names: Sequence[str], count: int, depth: int = 0) -> str:
    """``count`` objects of ``names`` as ``json.dumps(indent=2)`` lays out a
    list ``depth`` levels deep: a ``%s`` per value, a "%" in a name doubled."""
    if not count:
        return "[]"
    from _json import encode_basestring_ascii

    outer, inner, deep = "  " * depth, "  " * (depth + 1), "  " * (depth + 2)
    fields = ",\n".join(
        f"{deep}{encode_basestring_ascii(name).replace('%', '%%')}: %s"
        for name in names)
    row = f"{inner}{{\n{fields}\n{inner}}}"
    return "[\n" + ",\n".join([row] * count) + f"\n{outer}]"


def _json_rows(names: Sequence[str], rows: Sequence[Sequence],
               depth: int = 0) -> str:
    """Rows of scalars in ``_row_template``'s layout, all encoded in one
    C-encoder call, one per line: no ASCII-encoded scalar holds a line
    break, so any other count (a container of two or more) is a ValueError."""
    values = [value for row in rows for value in row]
    lines = "".join(_json_encoder("\n")(values, 0))[1:-1].splitlines()
    if len(lines) != len(rows) * len(names):
        raise ValueError("JSON rows need one scalar per column")
    return _row_template(names, len(rows), depth) % tuple(lines)


def _run_sweep(args, lib: PresetLibrary) -> tuple[str, int]:
    base = lib.model(args.model)
    placement = _build_placement(args, lib)
    # Axes iterate in lexicographic name order; values keep user order.  An
    # axis the grid does not set takes the one value None and has no column.
    axes = {"chunk": args.chunk, "context_steps": args.context_steps,
            "decoding": args.decoding, "dof": args.dof, "steps": args.steps}
    combos = list(product(*((None,) if values is None else values
                            for values in axes.values())))

    # Each count triple, each decoding variant of the base and each pair of
    # them is configured once.  A point configures its triple on the base
    # before its decoding, as ``_configure_spec`` does, so the grid's first
    # error is the same.
    triples: dict = {}
    variants: dict = {}
    specs: dict = {}

    # sync_sweep checks each point as this generator configures it, and all
    # of them before it prices any: a grid exits on its first invalid point,
    # in grid order, before pricing anything.
    def points():
        for chunk, context_steps, decoding, dof, steps in combos:
            counts = (chunk, steps, dof)
            key = (decoding, counts)
            if key not in specs:
                if counts not in triples:
                    triples[counts] = _configure_spec(base, *counts, None)
                spec = triples[counts]
                if decoding is not None:
                    if decoding not in variants:
                        variants[decoding] = decoding_variant_spec(base,
                                                                   decoding)
                    if decoding != DIFFUSION:
                        spec = _configure_spec(variants[decoding], *counts,
                                               None)
                specs[key] = spec
            spec = specs[key]
            _check_steps(spec, steps)
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
    """A golden cell's printed fields, in ``_CELL_COLUMNS`` order: text as it
    is, None as N/A, a number with its lower-cased unit's decimals or 2."""
    modeled, rel = cell.modeled, cell._relative_error
    if not isinstance(modeled, str):
        modeled = "N/A" if modeled is None else (
            f"{modeled:.{_DECIMALS.get(cell.unit.lower(), 2)}f}")
    return (cell.label, cell.unit, modeled,
            "N/A" if cell.reference is None else cell.reference,
            "" if rel is None else f"{rel * 100:+.1f}%",
            _CELL_STATUS[cell._passed])


def _reproduce_json(tables) -> str:
    """The ``reproduce`` document of (name, passed, ``_cell_fields`` rows)
    ``tables``: the tables' template, then one ``%`` of every ``str`` field."""
    from _json import encode_basestring_ascii as text

    slots = [slot for name, passed, rows in tables for slot in (
        text(name).replace("%", "%%"), "true" if passed else "false",
        _row_template(_CELL_COLUMNS, len(rows), 2))]
    template = _row_template(("table", "passed", "cells"), len(tables))
    return (template % tuple(slots)) % tuple(map(text, chain.from_iterable(
        row for _, _, rows in tables for row in rows)))


def _run_reproduce(args, lib: PresetLibrary) -> tuple[str, int]:
    # Only this command loads ``golden`` and its reference tables.
    from . import golden
    names = _ALL_TABLES if args.table == "all" else (args.table,)
    # One memo for the command: the tables build each distinct phase once.
    memo: dict = {}
    tables = [(name, golden.table_passed(cells), [*map(_cell_fields, cells)])
              for name in names for cells in [golden.TABLES[name](lib, memo)]]
    code = 0 if all(passed for _, passed, _ in tables) else 2
    if args.format == "json":
        return _reproduce_json(tables), code
    if args.format == "csv":
        return _csv_text(("table", *_CELL_COLUMNS), [
            (name, *row) for name, _, rows in tables for row in rows]), code
    lines = []
    for name, _, rows in tables:
        failed, info = map([row[-1] for row in rows].count, ("FAIL", "info"))
        verdict = f"FAIL ({failed} cell(s))" if failed else "PASS"
        lines += [_aligned([(name, label, f"{modeled} {unit}".rstrip(),
                             f"{reference} {unit}".rstrip(), error, status)
                            for label, unit, modeled, reference, error, status
                            in rows], "<<>>>"),
                  f"{name}: {verdict} — {len(rows) - info} graded, "
                  f"{info} informational", ""]
    lines.append("overall: " + ("PASS" if code == 0 else "FAIL"))
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
    width = max((len(name) for name, _ in chain(*groups.values())), default=0)
    lines = []
    for group, presets in groups.items():
        lines.append(f"{group}:")
        lines.extend(f"  {name:<{width}}  {_describe(group, preset)}"
                     for name, preset in presets)
    return "\n".join(lines), 0
